// Wire observation model for the invariant checker (DESIGN.md §11).
//
// The checker watches the simulation exclusively through the network's
// packet taps: every delivered hop becomes one WireEvent.  Two derived
// facts matter for the protocol invariants:
//
//   emission — the hop left the node that PROTOCOL-addressed the frame
//     (frame.src_host resolves to the `from` node).  Hosts are
//     single-homed, so a host's first hop preserves its send order; a
//     switch-resident cache agent's frames are emitted by its switch.
//   final delivery — the hop arrived at the node the frame is
//     protocol-addressed to (frame.dst_host resolves to `to`).
//
// The checker keeps no digest of its own: the network's wire digest
// already hashes every delivered byte (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <string>

#include "net/objnet.hpp"

namespace objrpc::check {

/// One observed frame hop (fires at delivery into `to`'s NIC).
struct WireEvent {
  SimTime at = 0;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MsgType type = MsgType::nack;
  HostAddr src = kUnspecifiedHost;
  HostAddr dst = kUnspecifiedHost;
  ObjectId object;
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::uint32_t epoch = 0;
  std::uint64_t obj_version = 0;
  std::uint64_t payload_bytes = 0;
  /// Tenant tag from the frame header (0 = infrastructure).
  std::uint32_t tenant = 0;
  bool emission = false;
  bool final_delivery = false;

  std::string to_string() const;
};

/// Human-readable protocol address ("host 3", "inc-cache(switch 2)").
std::string addr_to_string(HostAddr addr);

}  // namespace objrpc::check
