// Per-tenant egress fair queueing and ingress admission control for
// switches (DESIGN.md §13).
//
// A single hot tenant can otherwise monopolise a bottleneck link: the
// network's per-direction transmitter is FIFO, so one tenant's burst
// sits in front of everyone else's frames for the whole drain.  The
// paper's first-class-reference fabric is pitched at whole populations
// of clients, and "An Interference-Free Programming Model for Network
// Objects" (PAPERS.md) states the semantics we enforce here: one
// tenant's hot object must not starve another tenant's traffic.
//
// Two opt-in mechanisms, both classifying on Packet::tenant (stamped by
// the protocol layer from the frame header's tenant tag):
//
//   EgressScheduler — deficit-round-robin (DRR) fair queueing per
//     egress port.  Frames are queued per tenant; each round every
//     backlogged tenant earns `quantum_bytes` of sending credit, and
//     dequeues are paced at the link's serialization rate so the
//     network-internal FIFO never builds tenant-ordered depth.  DRR's
//     guarantee: over any interval where a tenant stays backlogged it
//     sends at least (rounds x quantum - one max frame) bytes,
//     regardless of how much the other tenants offer.
//
//   TokenBucketGate — per-tenant token buckets at switch ingress.
//     Frames of a rate-limited tenant that arrive beyond rate + burst
//     are dropped at the door (counted, never queued), bounding how
//     deep any aggressor can push the fabric's queues.
//
// Determinism: both mechanisms are driven exclusively by the event loop
// and iterate sorted containers; enabling them changes the schedule (by
// design) but two same-seed runs stay byte-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/annotations.hpp"
#include "common/flat_table.hpp"
#include "sim/event_loop.hpp"
#include "sim/packet.hpp"

namespace objrpc {

struct FairQueueConfig {
  /// Master switch; off = frames bypass the scheduler entirely (the
  /// pre-existing FIFO behaviour, byte-identical to older builds).
  bool enabled = false;
  /// DRR credit granted per visit; >= one typical frame so a backlogged
  /// tenant progresses every round.
  std::uint64_t quantum_bytes = 2048;
  /// Per-tenant queue bound in bytes (0 = unbounded).  Overflow drops
  /// the arriving frame of the OFFENDING tenant — the whole point is
  /// that one tenant's backlog never displaces another's.
  std::uint64_t tenant_queue_bytes = 0;
};

/// Admission rate for one tenant (token bucket parameters).
struct TenantRate {
  /// Sustained wire-byte rate; 0 = unlimited (tenant is not policed).
  double bytes_per_sec = 0.0;
  std::uint64_t burst_bytes = 64 * 1024;
};

struct AdmissionConfig {
  bool enabled = false;
  /// Tenants with a configured rate are policed; everyone else (and
  /// tenant 0, the infrastructure class) passes freely.  Ordered map by
  /// design: config surface, and tests enumerate it in tenant order.
  // fablint:allow(node-map) config table, populated once at setup
  std::map<std::uint32_t, TenantRate> tenant_rates;
};

/// Passive observation of scheduler decisions, consumed by the
/// invariant checker's fair-share rule.  Kind semantics:
///   activated  — tenant became backlogged and joined the DRR rotation
///                (bytes = the frame that made it so)
///   grant      — tenant reached the head of the DRR active list and
///                earned a quantum (bytes = its deficit after the grant)
///   sent       — one frame dequeued for tenant (bytes = wire size)
///   rotated    — tenant moved to the back of the active list still
///                backlogged (bytes = its remaining deficit)
///   drained    — tenant's queue emptied; it leaves the active list
///   dropped    — arriving frame exceeded the tenant's queue bound
struct FqEvent {
  enum class Kind : std::uint8_t {
    activated, grant, sent, rotated, drained, dropped
  };
  Kind kind = Kind::grant;
  PortId port = kInvalidPort;
  std::uint32_t tenant = 0;
  std::uint64_t bytes = 0;
  /// Backlogged tenants on this port at the instant of the event.
  std::uint32_t active_tenants = 0;
};

/// Deficit-round-robin egress scheduler for one switch.  One instance
/// serves every port (state is per port); the owning node supplies the
/// emit callback and the per-port serialization time.
class EgressScheduler {
 public:
  using Emit = std::function<void(PortId, Packet)>;
  /// Wire-serialization time of `bytes` on `port`'s link.
  using TxTime = std::function<SimDuration(PortId, std::uint64_t bytes)>;
  using Observer = std::function<void(const FqEvent&)>;

  EgressScheduler(EventLoop& loop, FairQueueConfig cfg, Emit emit,
                  TxTime tx_time)
      : loop_(loop), cfg_(cfg), emit_(std::move(emit)),
        tx_time_(std::move(tx_time)) {}

  const FairQueueConfig& config() const { return cfg_; }

  /// Queue a frame for `port`; the scheduler emits it when its tenant's
  /// turn comes.  Must only be called when config().enabled.
  HOT_PATH void enqueue(PortId port, Packet pkt);

  /// Passive observers (the invariant checker's fair-share rule); they
  /// must not mutate the simulation.
  void add_observer(Observer obs) { observers_.push_back(std::move(obs)); }

  // fablint:allow(raw-counter) registered by the owning SwitchNode's group
  struct Counters {
    std::uint64_t enqueued = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped_queue = 0;
    std::uint64_t rounds = 0;  // DRR grants issued
  };
  const Counters& counters() const { return counters_; }

  /// Bytes currently queued across all ports and tenants.  The liveness
  /// invariant requires 0 at quiesce: an armed scheduler always has a
  /// drain event pending while anything is queued.
  std::uint64_t backlog_bytes() const { return backlog_bytes_; }
  /// Total bytes the scheduler has sent for `tenant` (all ports).
  std::uint64_t tenant_sent_bytes(std::uint32_t tenant) const;

 private:
  struct TenantQueue {
    std::deque<Packet> frames;
    std::uint64_t queued_bytes = 0;
    std::uint64_t deficit = 0;
    bool active = false;  // present in the port's DRR rotation
  };
  struct PortState {
    /// Sorted by design: the DRR rotation deque orders service, but the
    /// checker's fair-share snapshots walk tenants in id order.
    // fablint:allow(node-map) deterministic round-robin needs sorted ids
    std::map<std::uint32_t, TenantQueue> tenants;
    /// DRR rotation, in activation order.  Front is being served.
    std::deque<std::uint32_t> rotation;
    bool draining = false;  // a drain event is scheduled
    /// Front tenant already earned its quantum for this visit.
    bool front_granted = false;
    /// When the frame most recently handed to the link finishes
    /// serializing.  A drain chain that restarts after the DRR queue
    /// went empty must wait this out: emitting into a still-busy link
    /// would build FIFO depth below the scheduler, where arrival order
    /// (not fairness) rules.
    SimTime link_free_at = 0;
  };

  HOT_PATH void schedule_drain(PortId port, SimDuration after);
  HOT_PATH void drain(PortId port);
  void notify(FqEvent::Kind kind, PortId port, std::uint32_t tenant,
              std::uint64_t bytes, const PortState& ps) const;
  PortState& port_state(PortId port);

  EventLoop& loop_;
  FairQueueConfig cfg_;
  Emit emit_;
  TxTime tx_time_;
  std::vector<Observer> observers_;
  /// Dense per-port state: switch port ids are small contiguous indices,
  /// so the hot enqueue/drain path indexes instead of tree-walking.
  std::vector<PortState> ports_;
  FlatHashMap<std::uint32_t, std::uint64_t> sent_bytes_by_tenant_;
  Counters counters_;
  std::uint64_t backlog_bytes_ = 0;
};

/// Per-tenant token-bucket admission gate (switch ingress).
class TokenBucketGate {
 public:
  explicit TokenBucketGate(AdmissionConfig cfg) : cfg_(std::move(cfg)) {}

  const AdmissionConfig& config() const { return cfg_; }

  /// True if the frame, arriving at `at`, may enter; false = drop it
  /// (tokens exhausted).  Unpoliced tenants (no configured rate, or
  /// rate 0) always pass.  `at` never precedes an earlier call's.
  HOT_PATH bool admit(std::uint32_t tenant, std::uint64_t wire_bytes,
                      SimTime at);

  // fablint:allow(raw-counter) registered by the owning SwitchNode's group
  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t dropped = 0;
  };
  const Counters& counters() const { return counters_; }
  /// Frames dropped for one tenant.
  std::uint64_t dropped_for(std::uint32_t tenant) const;

 private:
  struct Bucket {
    double tokens = 0.0;
    SimTime refilled_at = 0;
    bool primed = false;  // first sighting starts with a full burst
  };

  AdmissionConfig cfg_;
  /// Keyed lookups only (never iterated), so open addressing is safe.
  FlatHashMap<std::uint32_t, Bucket> buckets_;
  FlatHashMap<std::uint32_t, std::uint64_t> dropped_by_tenant_;
  Counters counters_;
};

}  // namespace objrpc
