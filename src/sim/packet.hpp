// Packets and identifiers shared by the simulated network.
#pragma once

#include <cstdint>
#include <limits>

#include "common/bytes.hpp"
#include "common/time.hpp"

namespace objrpc {

/// Index of a node within its Network.
using NodeId = std::uint32_t;
/// Index of a port within its node.
using PortId = std::uint32_t;

constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
constexpr PortId kInvalidPort = std::numeric_limits<PortId>::max();

/// A frame in flight.  The payload bytes are opaque to the simulator;
/// switches parse them through their pipeline's key extractor and hosts
/// through their protocol stack.
struct Packet {
  Bytes data;
  /// Identity of this frame EMISSION, minted by the network at first
  /// transmit and preserved across hops and flood copies.  This is what
  /// flood duplicate-suppression keys on: distinct frames always get
  /// distinct ids, while every copy of one flooded frame shares one.
  /// (Retransmissions are fresh emissions and mint fresh ids.)
  std::uint64_t frame_id = 0;
  /// Causal trace this frame belongs to (src/obs).  Protocol layers
  /// stamp it from the frame header's TraceContext; frames sent without
  /// one get a unique per-Network id minted at first transmit.  Switch
  /// forwarding preserves it.  Unlike frame_id this is SHARED across
  /// related frames — every fragment and retransmission of one reliable
  /// message, every chunk of one fetch — so it must never be used for
  /// duplicate detection.
  std::uint64_t trace_id = 0;
  /// Span id of the operation that emitted the frame (0 = none); the
  /// tracer parents per-hop queue/wire/pipeline spans under it.
  std::uint64_t span_parent = 0;
  /// Tenant class of this frame (0 = infrastructure / untagged).  The
  /// protocol layer stamps it from the frame header's tenant tag so
  /// switches can classify for fair queueing and admission control
  /// without re-parsing the frame.  Preserved across hops and copies.
  std::uint32_t tenant = 0;
  /// Switch hops so far; the network drops frames exceeding a TTL to
  /// contain accidental broadcast loops.
  std::uint32_t hops = 0;

  /// Bytes occupied on the wire (payload + fixed framing overhead).
  std::uint64_t wire_size() const { return data.size() + kFrameOverhead; }

  /// A copy of every field except the payload (left empty).  Fan-out
  /// paths use this with BufferPool::copy_of so the payload copy comes
  /// from the pool instead of a fresh allocation.
  Packet header_copy() const {
    Packet p;
    p.frame_id = frame_id;
    p.trace_id = trace_id;
    p.span_parent = span_parent;
    p.tenant = tenant;
    p.hops = hops;
    return p;
  }

  static constexpr std::uint64_t kFrameOverhead = 24;
  static constexpr std::uint32_t kMaxHops = 32;
};

/// Link shaping parameters.
struct LinkParams {
  /// One-way propagation delay.
  SimDuration latency = 5 * kMicrosecond;
  /// Transmission rate in bits per second.
  double bandwidth_bps = 10e9;
  /// Drop-tail queue bound per direction, in bytes (0 = unbounded).
  std::uint64_t queue_bytes = 0;
  /// Probability a frame is lost in transit (exercised by transport
  /// tests; the figure benches run lossless like the paper's emulation).
  double loss_rate = 0.0;
};

}  // namespace objrpc
