// chaos_proxy — a fault-injecting TCP relay for transport hardening tests.
//
// Sits between hlock_node processes (point each peer's address book at the
// proxy; the proxy forwards to the real listener) and injects the failures
// a WAN inflicts on long-lived connections:
//
//   --refuse-first N      RST-close the first N accepted connections
//                         without contacting the target (connection
//                         refused, e.g. a peer that is not up yet)
//   --reset-every N       every Nth relayed connection is RST-closed on
//                         both sides after --reset-after-bytes of
//                         client->target traffic (mid-frame reset)
//   --truncate-every N    every Nth relayed connection forwards exactly
//                         --truncate-after-bytes of client->target
//                         traffic, silently discards the rest and then
//                         closes gracefully (byte truncation)
//   --garbage-every N     every Nth relayed connection gets
//                         --garbage-bytes of junk injected toward the
//                         target before any real bytes (malformed frames)
//
// Faults are deterministic in the connection arrival order, so a scripted
// smoke run exercises every path without a seed. One poll loop, no
// threads; Ctrl-C / SIGTERM prints a summary and exits.
//
//   chaos_proxy --listen 7100 --target 127.0.0.1:7000
//       --reset-every 3 --reset-after-bytes 512 --garbage-every 9
#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "net/event_loop.hpp"

using namespace hlock;

namespace {

struct Options {
  std::uint16_t listen_port{0};
  std::string target_host{"127.0.0.1"};
  std::uint16_t target_port{0};
  std::uint32_t refuse_first{0};
  std::uint32_t reset_every{0};
  std::uint64_t reset_after_bytes{1024};
  std::uint32_t truncate_every{0};
  std::uint64_t truncate_after_bytes{4096};
  std::uint32_t garbage_every{0};
  std::uint32_t garbage_bytes{64};
};

[[noreturn]] void usage_fail(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: chaos_proxy --listen PORT --target HOST:PORT\n"
            << "  [--refuse-first N] [--reset-every N]"
            << " [--reset-after-bytes K]\n"
            << "  [--truncate-every N] [--truncate-after-bytes K]\n"
            << "  [--garbage-every N] [--garbage-bytes K]\n";
  std::exit(2);
}

std::uint64_t num_or_die(const std::string& flag, const std::string& text) {
  const auto v = try_parse_u64(text);
  if (!v) usage_fail(flag + " expects an unsigned integer, got '" + text + "'");
  return *v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage_fail("missing value for " + arg);
      return argv[i];
    };
    if (arg == "--listen") {
      opt.listen_port = static_cast<std::uint16_t>(num_or_die(arg, next()));
    } else if (arg == "--target") {
      const std::string spec = next();
      const auto colon = spec.rfind(':');
      if (colon == std::string::npos) usage_fail("--target expects host:port");
      opt.target_host = spec.substr(0, colon);
      opt.target_port =
          static_cast<std::uint16_t>(num_or_die(arg, spec.substr(colon + 1)));
    } else if (arg == "--refuse-first") {
      opt.refuse_first = static_cast<std::uint32_t>(num_or_die(arg, next()));
    } else if (arg == "--reset-every") {
      opt.reset_every = static_cast<std::uint32_t>(num_or_die(arg, next()));
    } else if (arg == "--reset-after-bytes") {
      opt.reset_after_bytes = num_or_die(arg, next());
    } else if (arg == "--truncate-every") {
      opt.truncate_every = static_cast<std::uint32_t>(num_or_die(arg, next()));
    } else if (arg == "--truncate-after-bytes") {
      opt.truncate_after_bytes = num_or_die(arg, next());
    } else if (arg == "--garbage-every") {
      opt.garbage_every = static_cast<std::uint32_t>(num_or_die(arg, next()));
    } else if (arg == "--garbage-bytes") {
      opt.garbage_bytes = static_cast<std::uint32_t>(num_or_die(arg, next()));
    } else {
      usage_fail("unknown argument: " + arg);
    }
  }
  if (opt.listen_port == 0) usage_fail("--listen is required");
  if (opt.target_port == 0) usage_fail("--target is required");
  return opt;
}

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// Close with an RST instead of a FIN.
void rst_close(int fd) {
  const linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(fd);
}

class ChaosProxy {
 public:
  ChaosProxy(Options opt) : opt_(std::move(opt)) {}

  int run() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return die("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt_.listen_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0)
      return die("bind");
    if (::listen(listen_fd_, 128) != 0) return die("listen");
    set_nonblocking(listen_fd_);
    loop_.watch(listen_fd_, POLLIN, [this](std::uint32_t) { on_accept(); });
    std::cerr << "[chaos] listening on 127.0.0.1:" << opt_.listen_port
              << " -> " << opt_.target_host << ":" << opt_.target_port << "\n";
    loop_.run();
    std::cerr << "[chaos] accepted=" << accepted_ << " refused=" << refused_
              << " resets=" << resets_ << " truncations=" << truncations_
              << " garbage_injections=" << garbage_ << "\n";
    return 0;
  }

  hlock::net::EventLoop& loop() { return loop_; }

 private:
  /// One relayed connection: client (the dialing node) on one side, the
  /// real listener on the other. Bytes buffer through the proxy so each
  /// side can stall independently.
  struct Relay {
    int client_fd{-1};
    int target_fd{-1};
    bool target_connecting{true};
    std::uint64_t client_to_target{0};  ///< relayed byte count (fault arm)
    bool reset_armed{false};
    bool truncate_armed{false};
    bool truncating{false};  ///< past the truncation point: discard input
    std::vector<std::uint8_t> to_target;
    std::size_t to_target_pos{0};
    std::vector<std::uint8_t> to_client;
    std::size_t to_client_pos{0};
  };

  int die(const char* what) {
    std::cerr << "[chaos] fatal: " << what << ": " << std::strerror(errno)
              << "\n";
    return 1;
  }

  void on_accept() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;
      }
      ++accepted_;
      if (refused_ < opt_.refuse_first) {
        ++refused_;
        std::cerr << "[chaos] conn " << accepted_ << ": refused\n";
        rst_close(fd);
        continue;
      }
      start_relay(fd);
    }
  }

  void start_relay(int client_fd) {
    set_nonblocking(client_fd);
    auto relay = std::make_shared<Relay>();
    relay->client_fd = client_fd;
    const std::uint32_t idx = relayed_++;
    relay->reset_armed =
        opt_.reset_every != 0 && (idx + 1) % opt_.reset_every == 0;
    relay->truncate_armed = !relay->reset_armed && opt_.truncate_every != 0 &&
                            (idx + 1) % opt_.truncate_every == 0;
    // Faults are mutually exclusive per connection (reset > truncate >
    // garbage): injected garbage kills the link via a decode error long
    // before a byte-count fault could trigger, which would mask it.
    const bool garbage = !relay->reset_armed && !relay->truncate_armed &&
                         opt_.garbage_every != 0 &&
                         (idx + 1) % opt_.garbage_every == 0;

    const int tfd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tfd < 0) {
      rst_close(client_fd);
      return;
    }
    set_nonblocking(tfd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opt_.target_port);
    if (::inet_pton(AF_INET, opt_.target_host.c_str(), &addr.sin_addr) != 1) {
      ::close(tfd);
      rst_close(client_fd);
      return;
    }
    const int rc =
        ::connect(tfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(tfd);
      rst_close(client_fd);  // target down: looks like a refusal upstream
      return;
    }
    relay->target_fd = tfd;
    relay->target_connecting = rc != 0;
    if (garbage) {
      ++garbage_;
      std::cerr << "[chaos] conn " << accepted_ << ": injecting "
                << opt_.garbage_bytes << " garbage bytes\n";
      // 0xFF..FF decodes as an oversized length prefix: instant, contained
      // DecodeError on the receiving node.
      relay->to_target.assign(opt_.garbage_bytes, 0xFF);
    }
    relays_[client_fd] = relay;
    relays_[tfd] = relay;
    loop_.watch(client_fd, POLLIN, [this, relay](std::uint32_t re) {
      on_client_event(relay, re);
    });
    loop_.watch(tfd, relay->target_connecting ? POLLOUT : (POLLIN | POLLOUT),
                [this, relay](std::uint32_t re) { on_target_event(relay, re); });
  }

  void drop(const std::shared_ptr<Relay>& r, bool reset) {
    if (r->client_fd < 0) return;  // already dropped
    loop_.unwatch(r->client_fd);
    loop_.unwatch(r->target_fd);
    relays_.erase(r->client_fd);
    relays_.erase(r->target_fd);
    if (reset) {
      rst_close(r->client_fd);
      rst_close(r->target_fd);
    } else {
      ::close(r->client_fd);
      ::close(r->target_fd);
    }
    r->client_fd = r->target_fd = -1;
  }

  /// Read from `from`, append to `buf`; returns false when the connection
  /// is finished (EOF or error).
  static bool pump_in(int from, std::vector<std::uint8_t>& buf) {
    std::uint8_t tmp[65536];
    for (;;) {
      const ssize_t n = ::recv(from, tmp, sizeof tmp, 0);
      if (n > 0) {
        buf.insert(buf.end(), tmp, tmp + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  /// Write buffered bytes; returns false on a dead connection.
  static bool pump_out(int to, std::vector<std::uint8_t>& buf,
                       std::size_t& pos) {
    while (pos < buf.size()) {
      const ssize_t n = ::send(to, buf.data() + pos, buf.size() - pos,
                               MSG_NOSIGNAL);
      if (n > 0) {
        pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buf.clear();
    pos = 0;
    return true;
  }

  void rewatch(const std::shared_ptr<Relay>& r) {
    if (r->client_fd < 0) return;
    short client_ev = POLLIN;
    if (r->to_client_pos < r->to_client.size()) client_ev |= POLLOUT;
    loop_.watch(r->client_fd, client_ev, [this, r](std::uint32_t re) {
      on_client_event(r, re);
    });
    short target_ev = r->target_connecting ? POLLOUT : POLLIN;
    if (!r->target_connecting && r->to_target_pos < r->to_target.size())
      target_ev |= POLLOUT;
    loop_.watch(r->target_fd, target_ev, [this, r](std::uint32_t re) {
      on_target_event(r, re);
    });
  }

  void on_client_event(const std::shared_ptr<Relay>& r, std::uint32_t re) {
    if (r->client_fd < 0) return;
    if (re & (POLLERR | POLLHUP | POLLNVAL)) {
      drop(r, /*reset=*/false);
      return;
    }
    if (re & POLLIN) {
      std::vector<std::uint8_t> fresh;
      if (!pump_in(r->client_fd, fresh)) {
        // Flush what we already owe the target, then close both ends.
        pump_out(r->target_fd, r->to_target, r->to_target_pos);
        drop(r, /*reset=*/false);
        return;
      }
      if (!apply_faults(r, fresh)) return;  // connection was reset/truncated
    }
    if (re & POLLOUT) {
      if (!pump_out(r->client_fd, r->to_client, r->to_client_pos)) {
        drop(r, /*reset=*/false);
        return;
      }
    }
    if (!r->target_connecting &&
        !pump_out(r->target_fd, r->to_target, r->to_target_pos)) {
      drop(r, /*reset=*/false);
      return;
    }
    rewatch(r);
  }

  void on_target_event(const std::shared_ptr<Relay>& r, std::uint32_t re) {
    if (r->client_fd < 0) return;
    if (r->target_connecting) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(r->target_fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0 || (re & (POLLERR | POLLNVAL)) != 0) {
        drop(r, /*reset=*/true);  // upstream sees a refused connection
        return;
      }
      r->target_connecting = false;
    }
    if (re & (POLLERR | POLLHUP | POLLNVAL)) {
      drop(r, /*reset=*/false);
      return;
    }
    if (re & POLLIN) {
      if (!pump_in(r->target_fd, r->to_client)) {
        pump_out(r->client_fd, r->to_client, r->to_client_pos);
        drop(r, /*reset=*/false);
        return;
      }
    }
    if (!pump_out(r->target_fd, r->to_target, r->to_target_pos) ||
        !pump_out(r->client_fd, r->to_client, r->to_client_pos)) {
      drop(r, /*reset=*/false);
      return;
    }
    rewatch(r);
  }

  /// Append `fresh` client bytes to the target buffer, honouring the
  /// armed fault. Returns false when the relay was torn down.
  bool apply_faults(const std::shared_ptr<Relay>& r,
                    const std::vector<std::uint8_t>& fresh) {
    if (r->truncating) return true;  // silently discard the tail
    std::size_t take = fresh.size();
    if (r->truncate_armed &&
        r->client_to_target + take >= opt_.truncate_after_bytes) {
      take = static_cast<std::size_t>(opt_.truncate_after_bytes -
                                      r->client_to_target);
      r->truncating = true;
      ++truncations_;
      std::cerr << "[chaos] truncating client->target after "
                << opt_.truncate_after_bytes << " bytes\n";
    }
    r->to_target.insert(r->to_target.end(), fresh.begin(),
                        fresh.begin() + static_cast<std::ptrdiff_t>(take));
    r->client_to_target += take;
    if (r->reset_armed && r->client_to_target >= opt_.reset_after_bytes) {
      ++resets_;
      std::cerr << "[chaos] reset after " << r->client_to_target
                << " client->target bytes\n";
      drop(r, /*reset=*/true);
      return false;
    }
    if (r->truncating) {
      // Deliver the kept prefix, then FIN both sides.
      pump_out(r->target_fd, r->to_target, r->to_target_pos);
      drop(r, /*reset=*/false);
      return false;
    }
    return true;
  }

  Options opt_;
  hlock::net::EventLoop loop_;
  int listen_fd_{-1};
  std::map<int, std::shared_ptr<Relay>> relays_;
  std::uint64_t accepted_{0};
  std::uint64_t refused_{0};
  std::uint64_t resets_{0};
  std::uint64_t truncations_{0};
  std::uint64_t garbage_{0};
  std::uint32_t relayed_{0};
};

ChaosProxy* g_proxy = nullptr;

void on_signal(int) {
  if (g_proxy != nullptr) g_proxy->loop().stop();
}

}  // namespace

int main(int argc, char** argv) {
  ChaosProxy proxy(parse_args(argc, argv));
  g_proxy = &proxy;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  return proxy.run();
}
