#include "node_flags.hpp"

#include <stdexcept>

#include "common/parse.hpp"

namespace hlock::tools {

namespace {

std::uint16_t flag_u16(const std::string& flag, const std::string& text) {
  const auto v = try_parse_u16(text);
  if (!v)
    throw std::invalid_argument(flag + " expects a port number, got '" +
                                text + "'");
  return *v;
}

}  // namespace

std::uint32_t flag_u32(const std::string& flag, const std::string& text) {
  const auto v = try_parse_u32(text);
  if (!v)
    throw std::invalid_argument(flag + " expects an unsigned integer, got '" +
                                text + "'");
  return *v;
}

void parse_node_flags(int argc, char** argv, NodeFlags& flags,
                      const ExtraFlag& extra) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::function<std::string()> value = [&]() -> std::string {
      if (++i >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[i];
    };
    if (arg == "--id") {
      flags.id = flag_u32(arg, value());
    } else if (arg == "--port") {
      flags.port = flag_u16(arg, value());
    } else if (arg == "--peer") {
      const std::string spec = value();  // id=host:port
      const auto eq = spec.find('=');
      const auto colon = spec.find(':', eq);
      if (eq == std::string::npos || colon == std::string::npos)
        throw std::invalid_argument("--peer expects id=host:port");
      const NodeId pid{flag_u32("--peer id", spec.substr(0, eq))};
      flags.peers[pid] = net::PeerAddress{
          spec.substr(eq + 1, colon - eq - 1),
          flag_u16("--peer port", spec.substr(colon + 1))};
    } else if (arg == "--reconnect-min-ms") {
      flags.tcp.reconnect_min = msec(flag_u32(arg, value()));
    } else if (arg == "--reconnect-max-ms") {
      flags.tcp.reconnect_max = msec(flag_u32(arg, value()));
    } else if (arg == "--heartbeat-ms") {
      flags.tcp.heartbeat_interval = msec(flag_u32(arg, value()));
    } else if (arg == "--idle-timeout-ms") {
      flags.tcp.idle_timeout = msec(flag_u32(arg, value()));
    } else if (!extra || !extra(arg, value)) {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
}

}  // namespace hlock::tools
