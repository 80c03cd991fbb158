// live_mesh: an in-process 3-node loopback net::InProcessCluster with the
// TcpConfig defaults hlock_node runs. Each node runs a lockmgr::SessionMux
// with 8 sessions over one table of 16 entries; load is a closed loop on
// the paper's op mix (each session issues its next op when the previous
// one is done, zero-length critical sections). The only workload that
// drives net; the engine is a small share of its work.
//
// Measured from outside through public hooks only:
//  - ProbeTransport, handed to each HlsNode in place of the TcpNode's
//    transport, counts, times and stamps every protocol send;
//  - the handler passed to TcpNode::set_handler matches each delivery to
//    its send (FIFO per channel) and times HlsNode::handle;
//  - EventLoop::post probes sample loop delay and SessionMux::active();
//  - TcpStats deltas give the transport counters.
//
// The whole mesh runs on one CPU. Spread over several CPUs of a shared VM,
// each hop's cross-CPU wake-up dominated and varied run to run by up to
// 4x (13k-58k ops/s over ten runs); on one CPU a run measures the CPU cost
// of the live path (sessions, engine, framing, syscalls, poll), steady to a
// few percent.
//
// Phases: setup (mesh built and connected, 41 times, median), warm-up,
// measure (untraced), then with --trace 1 a traced phase of equal length,
// then drain: sessions stop issuing, every op must complete and every
// frame be acked.
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "core/hls_node.hpp"
#include "lockmgr/resource.hpp"
#include "lockmgr/session_mux.hpp"
#include "measure.hpp"
#include "net/cluster.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hlock::Message;
using hlock::NodeId;

constexpr std::size_t kNodes = 3;
constexpr std::uint32_t kSessions = 8;
constexpr std::uint32_t kEntries = 16;
constexpr std::uint64_t kWindowOps = 5000;  ///< ops per run_s window
constexpr std::size_t kSetupReps = 41;
constexpr double kWarmupS = 0.3;
constexpr std::size_t kSpanCap = 200000;  ///< per loop thread
constexpr std::size_t kSampleCap = 1000000;
constexpr std::size_t kAcquireLimitUs = 100'000;  ///< histogram range
/// An op that waits longer than this for its locks has starved: it counts
/// as timed out, and the run fails.
constexpr hlock::Duration kOpTimeoutUs = hlock::sec(1);
constexpr std::size_t kCapturedMessages = 20000;  ///< over the mesh

/// Which part of the run an event falls in.
enum Segment : int { kWarmup = 0, kMeasure = 1, kTraced = 2, kDrain = 3 };

/// The paper's op mix (§4): IR/R/U/IW/W = 80/10/4/5/1, no dwell.
hlock::lockmgr::Op draw_op(hlock::Rng& rng) {
  using hlock::lockmgr::OpKind;
  hlock::lockmgr::Op op;
  const std::uint64_t r = rng.next_below(100);
  if (r < 80) op.kind = OpKind::kEntryRead;
  else if (r < 90) op.kind = OpKind::kTableRead;
  else if (r < 94) op.kind = OpKind::kTableUpgrade;
  else if (r < 99) op.kind = OpKind::kEntryWrite;
  else op.kind = OpKind::kTableWrite;
  op.entry = static_cast<std::uint32_t>(rng.next_below(kEntries));
  return op;
}

struct SendStamp {
  std::int64_t t_ns{0};
  std::uint64_t span{0};
  std::uint64_t key{0};
};

class Mesh;

/// Counts and stamps every protocol send of one node, then forwards it to
/// the TcpNode's own transport.
class ProbeTransport final : public hlock::Transport {
 public:
  ProbeTransport(Mesh& mesh, std::size_t self, hlock::Transport& inner)
      : mesh_(mesh), self_(self), inner_(inner) {}
  void send(NodeId to, Message m) override;

 private:
  Mesh& mesh_;
  std::size_t self_;
  hlock::Transport& inner_;
};

/// One node's protocol stack and counters. After construction, only that
/// node's loop thread touches it until the cluster is stopped.
struct NodeState {
  std::unique_ptr<ProbeTransport> transport;
  std::unique_ptr<hlock::core::HlsNode> hls;
  std::unique_ptr<hlock::lockmgr::SessionMux> mux;
  hlock::Rng rng{0};

  std::uint64_t ops_done{0};
  std::uint64_t ops_timed_out{0};
  std::uint64_t lock_requests{0};
  IntHistogram acquire_us{kAcquireLimitUs};  ///< ops completed in kMeasure
  std::uint64_t sent{0};
  std::uint64_t sent_bytes{0};
  std::array<std::uint64_t, hlock::kMsgKindCount> sent_by_kind{};
  std::uint64_t unmatched{0};
  std::array<double, 4> transit_sum_us{};  ///< by Segment
  std::array<std::uint64_t, 4> transit_n{};

  // Traced segment only.
  std::uint64_t context_span{0};  ///< span whose work runs on the loop now
  std::vector<double> transit_us;
  std::vector<double> loop_delay_us;
  std::array<double, 5> handle_ns{};
  std::array<std::uint64_t, 5> handles{};
  double busy_ns{0};
  double send_ns{0};
  std::uint64_t sends_timed{0};
  std::size_t queue_depth_max{0};
  std::uint64_t active_sum{0};
  std::uint64_t active_samples{0};
  std::vector<Message> captured;
};

class Mesh {
 public:
  Mesh(std::uint64_t seed, SpanLog& log)
      : layout_(kEntries), log_(log), matcher_(kNodes), nodes_(kNodes) {
    cluster_ =
        std::make_unique<hlock::net::InProcessCluster>(kNodes, hlock::net::TcpConfig{});
    for (std::size_t i = 0; i < kNodes; ++i) {
      NodeState& n = nodes_[i];
      hlock::net::TcpNode& tcp = cluster_->node(i);
      n.transport = std::make_unique<ProbeTransport>(*this, i, tcp.transport());
      n.hls = std::make_unique<hlock::core::HlsNode>(
          NodeId{static_cast<std::uint32_t>(i)}, *n.transport);
      // Lock l starts rooted at node l % N, identically on every node.
      for (std::uint32_t l = 0; l < layout_.lock_count(); ++l)
        n.hls->add_lock(hlock::LockId{l},
                        NodeId{static_cast<std::uint32_t>(l % kNodes)});
      n.mux = std::make_unique<hlock::lockmgr::SessionMux>(*n.hls, layout_,
                                                          tcp.loop(), kSessions);
      n.rng = hlock::Rng(mix_seed(seed, 10 + i));
      tcp.set_handler([this, i](const Message& m) { on_message(i, m); });
    }
  }
  ~Mesh() { stop(); }
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  /// Wait until every node has a connection to every peer.
  bool wait_connected(double limit_s) {
    const std::int64_t t0 = now_ns();
    for (;;) {
      bool all = true;
      for (std::size_t i = 0; i < kNodes; ++i)
        all = all && cluster_->node(i).connected_peers() == kNodes - 1;
      if (all) return true;
      if (seconds_between(t0, now_ns()) > limit_s) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  /// Start every session's closed loop.
  void start() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::uint32_t sid = 0; sid < kSessions; ++sid)
        cluster_->node(i).loop().post([this, i, sid] { pump(i, sid); });
    }
  }

  void enter(Segment s) {
    tracing_.store(s == kTraced, std::memory_order_relaxed);
    segment_.store(s, std::memory_order_release);
  }

  /// Post a loop-delay probe to every node (main thread).
  void probe() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      const std::int64_t t = now_ns();
      cluster_->node(i).loop().post([this, i, t] {
        NodeState& n = nodes_[i];
        n.loop_delay_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
        n.active_sum += n.mux->active();
        ++n.active_samples;
      });
    }
  }

  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t issued() const {
    return issued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNodes; ++i)
      total += cluster_->node(i).delivered();
    return total;
  }
  [[nodiscard]] std::uint64_t unacked() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNodes; ++i)
      total += cluster_->node(i).unacked();
    return total;
  }
  [[nodiscard]] hlock::net::TcpStats stats() const {
    return cluster_->total_stats();
  }
  [[nodiscard]] std::size_t unmatched_sends() const {
    return matcher_.unmatched();
  }
  /// Completion times of every kWindowOps-th op. Call after stop().
  [[nodiscard]] const std::vector<std::int64_t>& marks() const {
    return marks_;
  }
  /// Node state; read it only after stop().
  [[nodiscard]] const NodeState& node(std::size_t i) const { return nodes_[i]; }

  /// Stop the loops and join their threads (idempotent).
  void stop() { cluster_->stop(); }

 private:
  friend class ProbeTransport;

  void pump(std::size_t i, std::uint32_t sid) {
    if (segment_.load(std::memory_order_acquire) == kDrain) return;
    NodeState& n = nodes_[i];
    const hlock::lockmgr::Op op = draw_op(n.rng);
    issued_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t span = 0;
    std::int64_t t_issue = 0;
    const std::uint64_t outer = n.context_span;
    if (tracing_.load(std::memory_order_relaxed)) {
      span = log_.next_id();
      t_issue = now_ns();
      n.context_span = span;
    }
    n.mux->start(sid, op, [this, i, sid, span, t_issue](
                              const hlock::lockmgr::OpStats& st) {
      done(i, sid, st, span, t_issue);
    });
    n.context_span = outer;
  }

  void done(std::size_t i, std::uint32_t sid,
            const hlock::lockmgr::OpStats& st, std::uint64_t span,
            std::int64_t t_issue) {
    NodeState& n = nodes_[i];
    ++n.ops_done;
    if (st.acquire_latency > kOpTimeoutUs) ++n.ops_timed_out;
    n.lock_requests += st.lock_requests;
    if (segment_.load(std::memory_order_relaxed) == kMeasure)
      n.acquire_us.add(static_cast<std::uint64_t>(st.acquire_latency));
    if (span != 0)
      log_.record(i, Span{span, 0, 0, t_issue, now_ns(), SpanKind::kOp});
    const std::uint64_t c =
        completed_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (c % kWindowOps == 0) {
      const std::int64_t t = now_ns();
      std::lock_guard lk(marks_mu_);
      marks_.push_back(t);
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
    pump(i, sid);
  }

  void on_message(std::size_t self, const Message& m) {
    NodeState& n = nodes_[self];
    const std::int64_t t_in = now_ns();
    const int seg = segment_.load(std::memory_order_relaxed);
    std::optional<SendStamp> stamp;
    if (m.from.value < kNodes) stamp = matcher_.on_receive(m.from.value, self);
    if (!stamp) {
      ++n.unmatched;
    } else {
      const double transit = static_cast<double>(t_in - stamp->t_ns) / 1e3;
      n.transit_sum_us[static_cast<std::size_t>(seg)] += transit;
      ++n.transit_n[static_cast<std::size_t>(seg)];
      if (seg == kTraced && n.transit_us.size() < kSampleCap)
        n.transit_us.push_back(transit);
    }
    if (!tracing_.load(std::memory_order_relaxed)) {
      n.hls->handle(m);
      return;
    }
    const std::uint64_t transit_id = log_.next_id();
    const std::uint64_t handle_id = log_.next_id();
    if (stamp) {
      log_.record(self, Span{transit_id, stamp->span, stamp->key, stamp->t_ns,
                             t_in, SpanKind::kTransit});
    }
    const std::uint64_t outer = n.context_span;
    n.context_span = handle_id;
    n.hls->handle(m);
    const std::int64_t t_out = now_ns();
    n.context_span = outer;
    log_.record(self, Span{handle_id, stamp ? transit_id : 0, request_key(m),
                           t_in, t_out, SpanKind::kHandle});
    n.busy_ns += static_cast<double>(t_out - t_in);
    const int k = hls_kind_index(m.kind);
    if (k >= 0) {
      n.handle_ns[static_cast<std::size_t>(k)] +=
          static_cast<double>(t_out - t_in);
      ++n.handles[static_cast<std::size_t>(k)];
    }
    if (const auto* e = n.hls->find(m.lock); e != nullptr)
      n.queue_depth_max = std::max(n.queue_depth_max, e->queue().size());
  }

  hlock::lockmgr::ResourceLayout layout_;
  SpanLog& log_;
  FifoMatcher<SendStamp> matcher_;
  std::atomic<int> segment_{kWarmup};
  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::size_t> captured_{0};
  std::mutex marks_mu_;
  std::vector<std::int64_t> marks_;
  std::vector<NodeState> nodes_;
  // Last: destroyed (loops stopped and joined) before the node state the
  // loop threads use.
  std::unique_ptr<hlock::net::InProcessCluster> cluster_;
};

void ProbeTransport::send(NodeId to, Message m) {
  NodeState& n = mesh_.nodes_[self_];
  const bool traced = mesh_.tracing_.load(std::memory_order_relaxed);
  ++n.sent;
  n.sent_bytes += hlock::encoded_size(m);
  ++n.sent_by_kind[static_cast<std::size_t>(m.kind)];
  const std::uint64_t key = request_key(m);
  const std::uint64_t span = traced ? mesh_.log_.next_id() : 0;
  if (traced && mesh_.captured_.fetch_add(1, std::memory_order_relaxed) <
                    kCapturedMessages)
    n.captured.push_back(m);
  const std::int64_t t0 = now_ns();
  inner_.send(to, std::move(m));
  const std::int64_t t1 = now_ns();
  // Transit starts when send returns. Stamping after the call is safe:
  // TcpNode::send only posts the frame to this node's own loop, which is
  // the thread running this call, so the peer cannot receive it before
  // the stamp is queued; per-channel order is the order of these calls.
  mesh_.matcher_.on_send(self_, to.value, SendStamp{t1, span, key});
  if (!traced) return;
  n.send_ns += static_cast<double>(t1 - t0);
  ++n.sends_timed;
  mesh_.log_.record(self_,
                    Span{span, n.context_span, key, t0, t1, SpanKind::kSend});
}

/// Sleep until `t_end`, posting loop probes every millisecond if asked.
void hold_until(Mesh& mesh, std::int64_t t_end, bool probes) {
  while (now_ns() < t_end) {
    if (probes) mesh.probe();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

template <typename Fn>
bool wait_until(Fn done, double limit_s) {
  const std::int64_t t0 = now_ns();
  while (!done()) {
    if (seconds_between(t0, now_ns()) > limit_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

void run_live_mesh(const RunArgs& args, Report& report) {
  pin_to_one_cpu(report);
  SpanLog log(kNodes, args.trace ? kSpanCap : 0);

  std::vector<double> setup_s;
  std::unique_ptr<Mesh> mesh;
  bool connected = true;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    mesh.reset();
    const std::int64_t t0 = now_ns();
    mesh = std::make_unique<Mesh>(args.seed, log);
    connected = connected && mesh->wait_connected(10.0);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  report.check(connected, "mesh connected");

  mesh->start();
  hold_until(*mesh, now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9),
             false);

  // Untraced measurement.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::int64_t m0 = now_ns();
  const std::uint64_t c0 = mesh->completed();
  const std::uint64_t d0 = mesh->delivered();
  mesh->enter(kMeasure);
  hold_until(*mesh, m0 + static_cast<std::int64_t>(budget * 1e9), false);
  const std::int64_t m1 = now_ns();
  const std::uint64_t c1 = mesh->completed();
  const std::uint64_t d1 = mesh->delivered();

  // Traced measurement.
  std::int64_t t1 = m1;
  std::uint64_t tc1 = c1;
  const hlock::net::TcpStats s0 = mesh->stats();
  if (args.trace) {
    mesh->enter(kTraced);
    hold_until(*mesh, m1 + static_cast<std::int64_t>(budget * 1e9), true);
    t1 = now_ns();
    tc1 = mesh->completed();
  }
  const hlock::net::TcpStats s1 = mesh->stats();

  // Drain: no new ops; every op in flight must finish and every frame be
  // acknowledged.
  mesh->enter(kDrain);
  const bool all_done = wait_until([&] { return mesh->in_flight() == 0; }, 30.0);
  const bool all_acked = wait_until([&] { return mesh->unacked() == 0; }, 30.0);
  const hlock::net::TcpStats fin = mesh->stats();
  const std::size_t unmatched_sends = mesh->unmatched_sends();
  mesh->stop();

  std::uint64_t ops_done = 0, timed_out = 0, requests = 0, sent = 0, bytes = 0;
  std::uint64_t unmatched_recv = 0;
  std::array<std::uint64_t, hlock::kMsgKindCount> by_kind{};
  double transit_sum = 0;
  std::uint64_t transit_n = 0;
  IntHistogram acquire(kAcquireLimitUs);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeState& n = mesh->node(i);
    ops_done += n.ops_done;
    timed_out += n.ops_timed_out;
    requests += n.lock_requests;
    sent += n.sent;
    bytes += n.sent_bytes;
    unmatched_recv += n.unmatched;
    for (std::size_t k = 0; k < by_kind.size(); ++k) by_kind[k] += n.sent_by_kind[k];
    transit_sum += n.transit_sum_us[kMeasure];
    transit_n += n.transit_n[kMeasure];
    acquire.merge(n.acquire_us);
  }

  report.count_ops(mesh->issued(), mesh->issued() - ops_done + timed_out);
  report.check(all_done && ops_done == mesh->issued(),
               "every op completes (" + std::to_string(ops_done) + "/" +
                   std::to_string(mesh->issued()) + ")");
  report.check(timed_out == 0, "no op waited over 1 s for its locks (" +
                                   std::to_string(timed_out) + " did)");
  report.check(all_acked, "unacked() == 0 after the drain");
  report.check(fin.decode_errors == 0, "decode_errors == 0");
  report.check(fin.sends_rejected == 0, "sends_rejected == 0");
  report.check(fin.requeued_frames == 0, "requeued_frames == 0");
  report.check(unmatched_sends == 0 && unmatched_recv == 0,
               "every send matched to one delivery");

  // run_s: the time each run of kWindowOps consecutive completions took,
  // for windows wholly inside the untraced measurement.
  std::vector<double> window_s;
  const auto& marks = mesh->marks();
  for (std::size_t k = 1; k < marks.size(); ++k) {
    if (marks[k - 1] >= m0 && marks[k] <= m1)
      window_s.push_back(seconds_between(marks[k - 1], marks[k]));
  }
  report.check(window_s.size() >= 5, "at least 5 run_s windows (" +
                                         std::to_string(window_s.size()) + ")");

  const double measure_s = seconds_between(m0, m1);
  const double ops_per_s = static_cast<double>(c1 - c0) / measure_s;
  const double transit_mean = transit_n == 0 ? 0 : transit_sum / static_cast<double>(transit_n);
  const double rss = peak_rss_mb();
  const Percentile p50 = acquire.percentile(0.50);
  const Percentile p99 = acquire.percentile(0.99);
  report.check(p99.reportable(), "acquire p99 has >= 10 samples beyond it");
  report.note("ops=" + std::to_string(c1 - c0) + " in " +
              std::to_string(measure_s) + "s, acquire samples n=" +
              std::to_string(p50.n) + " (p99 has " +
              std::to_string(p99.beyond) + " beyond), transit mean " +
              std::to_string(transit_mean) + "us over " +
              std::to_string(transit_n) + " messages, windows=" +
              std::to_string(window_s.size()));
  report.set("setup_s", median(setup_s), "s");
  report.set("run_s", median(window_s), "s");
  report.set("events_per_s", static_cast<double>(d1 - d0) / measure_s, "1/s");
  report.set("ops_per_s", ops_per_s, "1/s");
  report.set("msgs_per_request",
             static_cast<double>(sent) / static_cast<double>(requests),
             "1/request");
  report.set("acquire_p50_us", p50.value, "us");
  report.set("acquire_p99_us", p99.value, "us");
  report.set("latency_factor_p50", p50.value / transit_mean, "x");
  report.set("latency_factor_p99", p99.value / transit_mean, "x");
  report.set("peak_rss_mb", rss, "MiB");
  if (!args.trace) return;

  const double traced_s = seconds_between(m1, t1);
  const std::uint64_t traced_ops = tc1 - c1;
  report.set("trace.overhead",
             ops_per_s / (static_cast<double>(traced_ops) / traced_s) - 1.0,
             "ratio");

  std::vector<double> transit, loop_delay;
  std::vector<Message> captured;
  std::array<double, 5> handle_ns{};
  std::array<std::uint64_t, 5> handles{};
  double busy = 0, send_ns = 0;
  std::uint64_t sends_timed = 0, active_sum = 0, active_samples = 0;
  std::size_t qmax = 0, engines = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeState& n = mesh->node(i);
    transit.insert(transit.end(), n.transit_us.begin(), n.transit_us.end());
    loop_delay.insert(loop_delay.end(), n.loop_delay_us.begin(),
                      n.loop_delay_us.end());
    captured.insert(captured.end(), n.captured.begin(), n.captured.end());
    for (std::size_t k = 0; k < 5; ++k) {
      handle_ns[k] += n.handle_ns[k];
      handles[k] += n.handles[k];
    }
    busy += n.busy_ns;
    send_ns += n.send_ns;
    sends_timed += n.sends_timed;
    active_sum += n.active_sum;
    active_samples += n.active_samples;
    qmax = std::max(qmax, n.queue_depth_max);
    engines += n.hls->lock_count();
  }
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  const Percentile tr50 = percentile(transit, 0.50);
  const Percentile tr99 = percentile(transit, 0.99);
  const Percentile ld50 = percentile(loop_delay, 0.50);
  const Percentile ld99 = percentile(loop_delay, 0.99);
  report.set("net.transit_us.p50", tr50.value, "us");
  report.set("net.transit_us.p99", tr99.reportable() ? tr99.value : 0, "us");
  report.set("net.transit_us.n", static_cast<double>(tr50.n), "count");
  report.set("net.loop_delay_us.p50", ld50.value, "us");
  report.set("net.loop_delay_us.p99", ld99.reportable() ? ld99.value : 0, "us");
  report.set("net.loop_delay_us.n", static_cast<double>(ld50.n), "count");
  report.set("net.send_ns", ratio(send_ns, static_cast<double>(sends_timed)),
             "ns");
  report.set("net.handler_busy_share",
             busy / (static_cast<double>(kNodes) * traced_s * 1e9), "ratio");
  const double frames = static_cast<double>(s1.frames_out - s0.frames_out);
  report.set("net.frames_per_batch",
             ratio(frames, static_cast<double>(s1.batches_written -
                                               s0.batches_written)),
             "count");
  report.set("net.standalone_acks_per_frame",
             ratio(static_cast<double>(s1.acks_standalone - s0.acks_standalone),
                   frames),
             "ratio");
  report.set("net.bytes_out_per_op",
             ratio(static_cast<double>(s1.bytes_out - s0.bytes_out),
                   static_cast<double>(traced_ops)),
             "B");
  report.set("net.outbox_high_water_bytes",
             static_cast<double>(fin.outbox_high_water), "B");
  report.set("net.requeued_frames", static_cast<double>(fin.requeued_frames),
             "count");
  for (std::size_t k = 0; k < 5; ++k) {
    report.set(std::string("core.handle_ns.") + kHlsKinds[k],
               ratio(handle_ns[k], static_cast<double>(handles[k])), "ns");
  }
  for (std::size_t k = 0; k < 5; ++k) {
    report.set(std::string("core.msgs_by_kind.") + kHlsKinds[k],
               ratio(static_cast<double>(by_kind[k]),
                     static_cast<double>(requests)),
               "1/request");
  }
  report.set("core.queue_depth_max", static_cast<double>(qmax), "count");
  report.set("core.engines_materialized", static_cast<double>(engines),
             "count");
  report.set("msg.bytes_per_message",
             ratio(static_cast<double>(bytes), static_cast<double>(sent)), "B");
  report.set("lockmgr.mux_active_share",
             ratio(static_cast<double>(active_sum),
                   static_cast<double>(active_samples) * kSessions),
             "ratio");
  report.set("lockmgr.requests_per_op",
             ratio(static_cast<double>(requests),
                   static_cast<double>(ops_done)),
             "1/op");
  report_codec(report, captured, /*frames=*/true);
  report_spans(report, log, args.spans_path);
}

}  // namespace perfbench
