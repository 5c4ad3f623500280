// The object network protocol: a bus-like vocabulary routed on identity.
//
// §3.2 argues the network and the memory bus should converge on a small
// set of operations (loads/stores, plus coherence upgrades) and a shared
// notion of identity (object IDs, not host addresses).  This header
// defines that wire vocabulary:
//
//   - memory operations  (read/write request & response — TileLink-lite)
//   - discovery          (broadcast discover / reply, ARP-analogue, §4 E2E)
//   - control plane      (advertise to controller, install into switches)
//   - movement           (object push fragments + acks, over the
//                         lightweight reliable transport of §3.2)
//   - invocation         (invoke request/response — the paper's
//                         code-mobility operations, carried like loads)
//   - coherence-lite     (invalidate / ack, for the caching layer)
//
// Frames carry BOTH a 128-bit object identity (the routing key the
// network understands) and an optional destination host (used by the E2E
// scheme and for replies).  dst_host == 0 means "route on the object id".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "objspace/id.hpp"
#include "obs/trace.hpp"
#include "sim/packet.hpp"

namespace objrpc {

/// Host identity carried in frames.  0 is reserved ("unspecified": route
/// by object identity / broadcast).
using HostAddr = std::uint64_t;
constexpr HostAddr kUnspecifiedHost = 0;

enum class MsgType : std::uint8_t {
  // discovery (E2E scheme)
  discover_req = 1,
  discover_reply = 2,
  // control plane (controller scheme)
  advertise = 3,    // host -> controller: I hold <object>
  withdraw = 4,     // host -> controller: I no longer hold <object>
  ctrl_install = 5, // controller -> switch: map key -> port
  ctrl_remove = 6,  // controller -> switch: remove key
  // memory operations
  read_req = 7,
  read_resp = 8,
  write_req = 9,
  write_resp = 10,
  // errors
  nack = 11,  // payload: u16 Errc
  // movement (reliable, fragmented)
  push_frag = 12,
  frag_ack = 13,
  // invocation (code mobility)
  invoke_req = 14,
  invoke_resp = 15,
  // coherence-lite
  invalidate = 16,
  invalidate_ack = 17,
  // cache fill for chunked on-demand movement
  chunk_req = 18,
  chunk_resp = 19,
  // whole-object adoption (carried inside the reliable push stream)
  object_adopt = 20,
  // read-replica installation (reliable stream; payload = primary + image)
  object_replica = 21,
  // atomics (fetch-add / compare-and-swap on a u64 word); §5's
  // synchronization offload — servable by the home OR by a switch
  atomic_req = 22,
  atomic_resp = 23,
  // in-network cache control plane (controller -> switch): grant or
  // revoke the privilege of answering chunk_req reads from switch SRAM
  ctrl_cache_grant = 24,
  ctrl_cache_revoke = 25,
  // failover / epoch fencing (home crash recovery)
  epoch_probe = 26,  // replica -> home ("are you alive?") or revived
                     // home -> members; frame.epoch = sender's epoch
  epoch_reply = 27,  // response / fence; frame.epoch = responder's
                     // epoch, payload = u64 believed home address
  promote_req = 28,  // controller -> designated replica: take over
  advertise_replica = 29,  // home -> controller: payload ReplicaAdvert
  member_update = 30,      // home -> designated replica (reliable):
                           // payload = member list (its siblings)
};

/// Atomic operation codes carried in atomic_req payloads.
enum class AtomicOp : std::uint8_t {
  fetch_add = 0,
  compare_swap = 1,
};

/// atomic_req payload.
struct AtomicRequest {
  AtomicOp op = AtomicOp::fetch_add;
  std::uint64_t operand = 0;   // addend / desired value
  std::uint64_t expected = 0;  // CAS comparand
};
Bytes encode_atomic_request(const AtomicRequest& req);
std::optional<AtomicRequest> decode_atomic_request(ByteSpan payload);

/// atomic_resp payload: the PREVIOUS value plus a success flag (always
/// true for fetch_add; CAS reports whether it swapped).
struct AtomicResponse {
  std::uint64_t old_value = 0;
  bool applied = true;
};
Bytes encode_atomic_response(const AtomicResponse& resp);
std::optional<AtomicResponse> decode_atomic_response(ByteSpan payload);

/// The one atomic step, for the home and the switch offload alike:
/// apply `req` to `word` in place and report the previous value and
/// whether it applied.  decode_atomic_request admits only the two ops
/// handled here.
AtomicResponse apply_atomic_op(std::uint64_t& word, const AtomicRequest& req);

const char* msg_type_name(MsgType t);

/// Header flags.
constexpr std::uint16_t kFlagBroadcast = 1u << 0;

/// The fixed frame header.  88 bytes on the wire (64 protocol bytes +
/// 16 bytes of trace context + 8 bytes of tenant tagging/reserve),
/// followed by a varint-length payload.
struct Frame {
  std::uint8_t version = 1;
  MsgType type = MsgType::nack;
  std::uint16_t flags = 0;
  HostAddr src_host = kUnspecifiedHost;
  HostAddr dst_host = kUnspecifiedHost;
  ObjectId object;
  /// Transport sequencing: request/response matching and fragment ids.
  std::uint64_t seq = 0;
  /// Byte range for memory operations.
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  /// Home-epoch fencing (failover): the sender's epoch for `object`.
  /// Carried by invalidates from a home and by the epoch probe/reply
  /// liveness exchange; a receiver that knows a higher epoch rejects the
  /// frame (the sender is a deposed home).  0 = not epoch-checked.
  std::uint32_t epoch = 0;
  /// Mutation counter of `object` as known by the sender; carried by
  /// chunk_resp (version of the served image) and invalidate (version
  /// that obsoleted the replicas).  0 = not applicable / unknown.  The
  /// coherence layer and the in-network cache use it so no stale image
  /// can be (re)admitted across a write-invalidate race.
  std::uint64_t obj_version = 0;
  /// Causal trace context (src/obs): trace id + parent span id, carried
  /// end-to-end so a fetch's frames at every node attribute to one span
  /// tree.  Encoded at the end of the fixed header (after obj_version,
  /// before the payload blob) so Frame::peek — which reads only the
  /// leading routing fields — is unaffected.  Ids are allocated from
  /// plain deterministic counters whether or not recording is armed, so
  /// the wire bytes are identical either way (see obs/trace.hpp).
  obs::TraceContext trace;
  /// Tenant that caused this frame (src/load, DESIGN.md §13).  0 is the
  /// infrastructure class (control plane, coherence, discovery, frames
  /// predating multi-tenancy); request issuers stamp their tenant and
  /// responders echo the request's tag so both legs of an operation are
  /// attributed — and fair-queued — to the tenant that caused them.
  /// Rides at the end of the fixed header (after the trace context) so
  /// Frame::peek and every pre-existing field offset are unaffected.
  std::uint32_t tenant = 0;
  Bytes payload;

  bool is_broadcast() const { return (flags & kFlagBroadcast) != 0; }

  Bytes encode() const;
  /// The simulator packet that carries this frame: the encoded bytes,
  /// plus the trace context (per-hop spans parent under the operation)
  /// and the tenant tag (switch fair queueing and admission classify
  /// without decoding).  Every sender converts through here.
  Packet to_packet() const;
  static Result<Frame> decode(ByteSpan data);
  /// decode without the payload copy: accepts exactly the frames decode
  /// accepts and fills every header field, but leaves `payload` empty
  /// and reports its length in `payload_size` (for observers that only
  /// count bytes).
  static Result<Frame> decode_header(ByteSpan data, std::size_t& payload_size);

  /// Decode only as far as the routing fields (what a switch parser
  /// does); cheaper than full decode and never touches the payload.
  struct RoutingView {
    MsgType type;
    std::uint16_t flags;
    HostAddr src_host;
    HostAddr dst_host;
    ObjectId object;
  };
  static std::optional<RoutingView> peek(const Packet& pkt);

  std::string to_string() const;
};

class SwitchNode;

/// Send `frame` from a switch-resident responder (in-network cache,
/// sync offload).  Host-addressed frames take the switch's host route;
/// identity-routed ones the object route, else the punt port.  Anything
/// without a route floods, except back out `in_port`.
void switch_emit(SwitchNode& sw, const Frame& frame, PortId in_port);

/// Routing keys: the switch tables hold both host routes and object
/// routes in one exact-match space.  Host keys live under a reserved
/// prefix that random 128-bit object IDs cannot collide with
/// (probability 2^-64 per object, and we additionally never allocate
/// IDs under the prefix).
constexpr std::uint64_t kHostKeyPrefix = 0xFFFF'FFFF'FFFF'FFFFULL;

inline U128 host_route_key(HostAddr host) {
  return U128{kHostKeyPrefix, host};
}
inline U128 object_route_key(ObjectId id) { return id.value; }

/// Switch-resident cache agents participate in the coherence protocol as
/// first-class copyset members, so they need protocol addresses.  They
/// live in a reserved high range real hosts (NodeId + 1, small) never
/// reach; the home's invalidation path uses this to invalidate switches
/// before host replicas.
constexpr HostAddr kIncCacheAddrBase = 0xFFFF'FFFF'0000'0000ULL;

inline HostAddr inc_cache_addr(NodeId switch_node) {
  return kIncCacheAddrBase + static_cast<HostAddr>(switch_node);
}
inline bool is_inc_cache_addr(HostAddr addr) {
  return addr >= kIncCacheAddrBase;
}

/// chunk_resp offset sentinel: "I do not hold this object" — sent by a
/// host whose store misses, or by a switch cache whose entry is gone by
/// the time a locked-on requester asks for more chunks.
constexpr std::uint64_t kChunkNotHere = ~0ULL;

/// Answer chunk request `req` from `image` (at `version`) into `resp`,
/// for every chunk server (home, replica, switch cache): a stat
/// (length 0) reports the image size as the offset; a data request
/// gets [offset, offset + length) clipped to the image.
void fill_chunk_reply(Frame& resp, const Frame& req, const Bytes& image,
                      std::uint64_t version);

/// Payload helpers ------------------------------------------------------

/// nack payload: the error code plus an optional redirect hint (used by
/// Errc::moved to name the authoritative home).
struct NackInfo {
  Errc code = Errc::malformed;
  HostAddr hint = kUnspecifiedHost;
};
Bytes encode_nack_payload(Errc code, HostAddr hint = kUnspecifiedHost);
std::optional<NackInfo> decode_nack_payload(ByteSpan payload);

/// ctrl_install payload: key + action port.
struct InstallRule {
  U128 key;
  PortId out_port = kInvalidPort;
};
Bytes encode_install_rule(const InstallRule& rule);
Result<InstallRule> decode_install_rule(ByteSpan payload);

/// ctrl_cache_grant payload: the caching privilege and its budget.
struct CacheGrant {
  /// SRAM the controller lets this switch spend on cached images.
  std::uint64_t sram_budget_bytes = 256 * 1024;
  /// Largest single object image the switch may admit.
  std::uint32_t max_entry_bytes = 16 * 1024;
  /// Accesses within the sliding window before a key is admitted.
  std::uint32_t admit_threshold = 3;
};
Bytes encode_cache_grant(const CacheGrant& grant);
Result<CacheGrant> decode_cache_grant(ByteSpan payload);

/// advertise_replica payload: a home tells the controller that `replica`
/// now holds a read replica of the frame's object, and whether that
/// replica is the designated failover successor.
struct ReplicaAdvert {
  HostAddr replica = kUnspecifiedHost;
  bool designated = false;
};
Bytes encode_replica_advert(const ReplicaAdvert& adv);
std::optional<ReplicaAdvert> decode_replica_advert(ByteSpan payload);

/// member_update / epoch bookkeeping payload: a list of host addresses.
Bytes encode_member_list(const std::vector<HostAddr>& members);
std::optional<std::vector<HostAddr>> decode_member_list(ByteSpan payload);

}  // namespace objrpc
