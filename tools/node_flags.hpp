// Flag parsing shared by the live tools (hlock_node, load_gen): the mesh
// membership and the transport timing flags every live node takes.
//
//   --id N                  this node's id (default 0)
//   --port P                listen port on 127.0.0.1 (default 0 = ephemeral)
//   --peer id=host:port     one mesh peer; repeat for each
//   --reconnect-min-ms M    first re-dial delay (TcpConfig::reconnect_min)
//   --reconnect-max-ms M    re-dial backoff cap (TcpConfig::reconnect_max)
//   --heartbeat-ms M        heartbeat interval, 0 = off
//   --idle-timeout-ms M     idle-connection reap timeout, 0 = off
//
// Values are parsed strictly (the whole token must be a number). A tool's
// own flags go through the `extra` callback; a flag neither recognises,
// a missing value or a bad number throws std::invalid_argument, which
// both tools report as a usage error (exit 2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/tcp_node.hpp"

namespace hlock::tools {

struct NodeFlags {
  std::uint32_t id{0};
  std::uint16_t port{0};
  std::map<NodeId, net::PeerAddress> peers;
  net::TcpConfig tcp{};
};

/// Offered each flag parse_node_flags does not recognise; return true if
/// consumed. `value` fetches the flag's argument (throws if missing).
using ExtraFlag =
    std::function<bool(const std::string& arg,
                       const std::function<std::string()>& value)>;

/// Parse argv into `flags`, offering every other flag to `extra`.
void parse_node_flags(int argc, char** argv, NodeFlags& flags,
                      const ExtraFlag& extra);

/// Strict u32 flag value; throws std::invalid_argument naming `flag`.
std::uint32_t flag_u32(const std::string& flag, const std::string& text);

}  // namespace hlock::tools
