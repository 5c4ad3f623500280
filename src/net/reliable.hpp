// Lightweight reliable transmission (§3.2).
//
// The paper argues memory messages need "a new, light-weight form of
// reliable transmission, separated from the other features provided by
// TCP (e.g., slow start)".  This channel provides exactly that and no
// more: fragmentation to an MTU, per-fragment acknowledgement, fixed-RTO
// retransmission with a retry budget, in-order-independent reassembly.
// No handshakes, no congestion windows, no byte streams.
//
// Wire mapping: fragments travel as MsgType::push_frag frames whose
// `seq` packs (message id | fragment index | fragment count; see
// FragSeq) and whose `offset` carries the *inner* message type to
// deliver on reassembly.  Acks echo the fragment's seq in a
// MsgType::frag_ack frame.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_table.hpp"
#include "net/host_node.hpp"
#include "sim/deadline_timer.hpp"

namespace objrpc {

/// A fragment's place in its message, as packed into a push_frag or
/// frag_ack frame's `seq`: the message id in bits 63..32, the fragment
/// index in 31..16 and the fragment count in 15..0.  The channel and the
/// invariant checker both read the wire through this one definition.
struct FragSeq {
  std::uint32_t msg_id = 0;
  std::uint32_t frag_idx = 0;
  std::uint32_t frag_count = 0;
};

inline std::uint64_t pack_frag_seq(const FragSeq& s) {
  return (static_cast<std::uint64_t>(s.msg_id) << 32) |
         (static_cast<std::uint64_t>(s.frag_idx) << 16) | s.frag_count;
}

inline FragSeq unpack_frag_seq(std::uint64_t seq) {
  return {static_cast<std::uint32_t>(seq >> 32),
          static_cast<std::uint32_t>((seq >> 16) & 0xFFFF),
          static_cast<std::uint32_t>(seq & 0xFFFF)};
}

/// Fragment size and retry budget.  The channel's timers are fixed
/// (ReliableChannel::kRto, kReassemblyIdle).
struct ReliableConfig {
  /// Max payload bytes per fragment.
  std::uint32_t mtu = 1400;
  /// Give up after this many retransmission rounds.
  int max_retries = 10;
};

/// A host-wide reliable messaging endpoint.
class ReliableChannel {
 public:
  /// Initial retransmission timeout for unacked fragments; doubles per
  /// retry round, up to 10 doublings (large messages legitimately take
  /// many RTTs to drain through a link — backoff keeps the timer from
  /// firing spuriously while fragments are still queued).
  static constexpr SimDuration kRto = 500 * kMicrosecond;
  /// Partial reassembly state with no fragment arrivals for this long is
  /// garbage-collected (the sender crashed or gave up mid-message).
  static constexpr SimDuration kReassemblyIdle = 2 * kSecond;
  static_assert(kReassemblyIdle > (kRto << 10),
                "a slow-but-alive sender's longest retry gap must not "
                "expire its partial message at the receiver");

  using StatusCallback = std::function<void(Status)>;
  /// Invoked on complete reassembly of an inbound message.
  using MessageHandler = std::function<void(
      HostAddr src, MsgType inner_type, ObjectId object, Bytes payload)>;

  ReliableChannel(HostNode& host, ReliableConfig cfg = {});

  /// Reliably deliver `payload` to `dst`, surfacing it there as
  /// `inner_type` about `object`.  `on_done` fires when every fragment
  /// is acknowledged (or with `timeout` after the retry budget).
  void send(HostAddr dst, MsgType inner_type, ObjectId object, Bytes payload,
            StatusCallback on_done);

  /// Route reassembled messages of `inner_type` to `handler` (one
  /// handler per inner type, as HostNode::set_handler does for frames).
  void set_handler(MsgType inner_type, MessageHandler handler);

  struct Counters {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t fragments_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicate_fragments = 0;
    std::uint64_t failures = 0;
    /// Partial inbound reassemblies garbage-collected after going idle.
    std::uint64_t reassembly_expired = 0;
    /// frag_acks whose source did not match the message's destination
    /// (stale or misrouted; ignored rather than falsely completing).
    std::uint64_t misdirected_acks = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Drop partial inbound reassemblies idle longer than
  /// kReassemblyIdle.  Runs lazily whenever a new inbound message
  /// starts; exposed for tests and for explicit housekeeping.
  std::size_t expire_idle();

  /// In-flight state introspection (tests / leak detection).
  std::size_t inbound_in_progress() const { return inbound_.size(); }
  std::size_t outbound_in_progress() const { return outbound_.size(); }
  /// Retransmission deadlines, keyed by message id.
  const DeadlineTimer<std::uint32_t>& deadline_timer() const { return timer_; }

  /// Snapshot of a partial inbound reassembly (invariant checker: leaked
  /// reassembly detection at quiesce).
  struct InboundSnapshot {
    HostAddr src = kUnspecifiedHost;
    std::uint32_t msg_id = 0;
    SimTime last_activity = 0;
    std::uint32_t received = 0;
    std::uint32_t total = 0;
  };
  /// Partial reassemblies, sorted by (src, msg_id) so reports are
  /// independent of the map's hash layout.
  std::vector<InboundSnapshot> inbound_snapshot() const {
    std::vector<InboundSnapshot> out;
    out.reserve(inbound_.size());
    inbound_.for_each([&](const InboundKey& key, const Inbound& in) {
      out.push_back({key.src, key.msg_id, in.last_activity, in.received,
                     static_cast<std::uint32_t>(in.frags.size())});
    });
    std::sort(out.begin(), out.end(),
              [](const InboundSnapshot& a, const InboundSnapshot& b) {
                return a.src != b.src ? a.src < b.src : a.msg_id < b.msg_id;
              });
    return out;
  }

  static constexpr std::uint32_t kMaxFragments = 0xFFFF;

 private:
  struct Outbound {
    HostAddr dst;
    MsgType inner_type;
    ObjectId object;
    Bytes payload;
    std::uint32_t frag_count = 0;
    std::unordered_set<std::uint32_t> unacked;
    /// Causal context of the whole message.  Every fragment — including
    /// retransmissions — carries this same trace id, so one reliable
    /// message is one trace no matter how many times frames re-enter
    /// the fabric.
    obs::TraceContext trace;
    int retries = 0;
    /// Acks arrived since the last timer check (TCP-style timer restart:
    /// progress means the network is draining, not dropping).
    bool progressed = false;
    StatusCallback on_done;
  };
  struct Inbound {
    std::vector<Bytes> frags;
    std::vector<bool> have;
    std::uint32_t received = 0;
    /// Last fragment arrival; drives the idle-expiry sweep.
    SimTime last_activity = 0;
  };

  /// Inbound reassembly identity: the FULL 64-bit source address plus
  /// the sender-local message id.  (Collapsing these into one u64 would
  /// silently discard the high half of the address and collide hosts
  /// that differ only there — e.g. switch cache agents.)
  struct InboundKey {
    HostAddr src = kUnspecifiedHost;
    std::uint32_t msg_id = 0;
    bool operator==(const InboundKey& o) const {
      return src == o.src && msg_id == o.msg_id;
    }
  };
  struct InboundKeyHash {
    std::size_t operator()(const InboundKey& k) const {
      // splitmix-style mix so src's high bits reach the bucket index.
      std::uint64_t x = k.src ^ (static_cast<std::uint64_t>(k.msg_id)
                                 * 0x9E3779B97F4A7C15ULL);
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };

  HOT_PATH void send_fragment(std::uint32_t msg_id, std::uint32_t frag_idx);
  /// No full ack in time: restart on progress, retransmit, or give up.
  void on_deadline(std::uint32_t msg_id);
  /// Complete an outbound message: the one place on_done fires.
  void finish(std::uint32_t msg_id, Status s);
  HOT_PATH void on_push_frag(const Frame& f);
  HOT_PATH void on_frag_ack(const Frame& f);
  void remember_completed(const InboundKey& key);

  HostNode& host_;
  ReliableConfig cfg_;
  /// A few inner types per host; dispatch runs once per reassembled
  /// message, so a linear scan is the whole table.
  std::vector<std::pair<MsgType, MessageHandler>> handlers_;
  std::uint32_t next_msg_id_ = 1;
  /// Open addressing (common/flat_table.hpp): these are the per-fragment
  /// frame-path lookups.  Keyed access only; the one iteration site
  /// (inbound_snapshot) sorts its output.
  FlatHashMap<std::uint32_t, Outbound> outbound_;
  FlatHashMap<InboundKey, Inbound, InboundKeyHash> inbound_;
  /// Recently completed inbound messages, so duplicate fragments are
  /// re-acked without re-delivery.
  FlatHashSet<InboundKey, InboundKeyHash> completed_;
  std::deque<InboundKey> completed_order_;
  DeadlineTimer<std::uint32_t> timer_;
  Counters counters_;
  /// Declared last: detaches from the registry before members it reads.
  obs::SourceGroup metrics_;
};

}  // namespace objrpc
