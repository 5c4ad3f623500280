// The protocol invariant checker (DESIGN.md §11).
//
// An always-compiled, opt-in observer that validates the simulation's
// protocol invariants ONLINE, through existing observation hooks only —
// the network's packet taps, the event loop's drain hook, and the
// replication / fetch / cache lifecycle observers.  It never mutates
// the simulation and never injects events, so an enabled checker leaves
// the event stream (and therefore the seeded replay) byte-identical.
//
// Invariants enforced:
//
//   split-brain / epochs — at most one live, non-recovering home per
//     lineage at quiesce; promotion epochs strictly increase (an equal
//     epoch means two successors promoted from the same base — the
//     classic split brain; a lower one is an epoch regression).
//
//   coherence — once a holder ACKNOWLEDGES an invalidate at version v,
//     it must never again emit a chunk_resp below v (stale serve) nor
//     adopt/admit an image below v (stale admission).  Floors attach at
//     the invalidate_ack *emission*, never at invalidate delivery, so a
//     legitimately in-flight race (response emitted before the holder
//     processed the invalidate) is not a false positive.  A home must
//     also invalidate switch caches before host replicas: per (sender,
//     object, version), a host-addressed invalidate emission followed
//     by a cache-addressed one is an ordering violation.
//
//   transport conservation — every delivered push_frag maps to a prior
//     emission of the same (sender, dst, msg, frag); a frag_ack may
//     only be emitted for a fragment actually delivered to the acker;
//     no expiry-eligible reassembly state survives quiesce.
//
//   liveness at quiesce — when the event queue drains, no live node may
//     still hold an open fetch, access, reliable transfer, epoch probe,
//     or switch-cache fill: nothing is left that could complete them.
//
// A violation produces a structured report (class, lineage, epoch
// trail, recent wire trace) and — in production mode — aborts the
// process: past the first broken invariant the simulation's behaviour
// is meaningless.  Tests disable the abort and assert on violations().
//
// Layering: this library sits BETWEEN net/inc and core.  It includes
// core/fetch.hpp and core/replication.hpp for the observer types, but
// only ever calls their inline members, so objrpc_check links without
// objrpc_core (core links objrpc_check, not the other way around).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "check/report.hpp"
#include "core/fetch.hpp"
#include "core/replication.hpp"
#include "inc/cache_stage.hpp"
#include "net/controller.hpp"
#include "net/service.hpp"
#include "sim/network.hpp"
#include "sim/switch_node.hpp"

namespace objrpc::check {

struct CheckerConfig {
  /// Abort the process with a structured report on the first violation.
  /// Tests disable this and inspect violations() instead.
  bool abort_on_violation = true;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(Network& net, CheckerConfig cfg = {});

  /// Register a host's protocol stack.  The checker learns the address
  /// mapping and installs its (passive) lifecycle observers.
  void attach_host(HostNode& host, ObjNetService& service,
                   ObjectFetcher& fetcher, ReplicaManager& replicas);
  /// Register a switch-resident cache agent.
  void attach_cache(IncCacheStage& stage);
  /// Register the SDN controller (grant bookkeeping + address mapping).
  void attach_controller(ControllerNode& controller);
  /// Register a switch whose egress fair queueing is armed.  Installs
  /// the isolation invariant: per port, a backlogged tenant must be
  /// granted its DRR visit before any other tenant is granted more
  /// visits than the rotation could legitimately hold in front of it —
  /// otherwise its queue share fell below the fair-share floor
  /// (fair_share_starvation).  No-op when the switch has no scheduler.
  void attach_fair_queue(SwitchNode& sw);

  /// Quiesce scan: runs from the event loop's drain hook every time the
  /// queue empties (no event left that could complete open work).
  void on_quiesce();

  const std::vector<Violation>& violations() const { return violations_; }
  bool clean() const { return violations_.empty(); }
  std::size_t count_of(ViolationClass cls) const;
  void set_abort_on_violation(bool b) { cfg_.abort_on_violation = b; }

  /// Protocol frames seen by the tap.  The checker keeps no digest: it
  /// arms the network's wire digest and folds its scheduler and quiesce
  /// facts into that one witness (Network::fold_digest).
  std::uint64_t events_observed() const { return events_; }

  /// Render every recorded violation (empty string when clean).
  std::string report() const;

 private:
  struct HostState {
    HostNode* host = nullptr;
    ObjNetService* service = nullptr;
    ObjectFetcher* fetcher = nullptr;
    ReplicaManager* replicas = nullptr;
  };
  using AddrObj = std::pair<HostAddr, ObjectId>;
  /// (receiver/sender address, object, frame seq).
  using InvKey = std::tuple<HostAddr, ObjectId, std::uint64_t>;
  /// (sender, destination, msg id, fragment index).
  using FragKey =
      std::tuple<HostAddr, HostAddr, std::uint32_t, std::uint32_t>;
  struct FragCount {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
  };

  void on_tap(NodeId from, NodeId to, const Packet& pkt);
  void on_fq_event(NodeId sw, const FqEvent& ev);
  void check_emission(const WireEvent& ev);
  void check_delivery(const WireEvent& ev);
  void on_replica_event(NodeId node, ReplicaManager::Event e, ObjectId id,
                        std::uint32_t epoch);
  void on_admission(HostAddr holder, ObjectId id, std::uint64_t version,
                    const char* what);
  std::uint64_t acked_floor(HostAddr holder, ObjectId id) const {
    auto it = acked_floor_.find({holder, id});
    return it == acked_floor_.end() ? 0 : it->second;
  }
  void violation(ViolationClass cls, ObjectId object, std::string detail);
  std::string node_name(NodeId n) const;

  Network& net_;
  CheckerConfig cfg_;
  std::vector<HostState> hosts_;
  std::vector<IncCacheStage*> caches_;
  ControllerNode* controller_ = nullptr;
  /// Protocol address -> owning node (hosts, cache agents, controller).
  std::unordered_map<HostAddr, NodeId> addr_to_node_;

  /// Coherence floors: highest version each holder has ACKED an
  /// invalidate for, per object.
  std::map<AddrObj, std::uint64_t> acked_floor_;
  /// Invalidates finally delivered but not yet matched to an ack
  /// emission, FIFO per (receiver, object, seq) — acks are emitted in
  /// delivery order, so the front is always the one being acked.
  std::map<InvKey, std::deque<std::uint64_t>> inv_delivered_;
  /// (sender, object, version) triples for which a HOST-addressed
  /// invalidate emission has been seen (ordering check).
  std::set<InvKey> host_inv_emitted_;
  /// push_frag conservation ledger.
  std::map<FragKey, FragCount> frags_;

  /// Fair-queueing switches under observation (quiesce backlog check).
  std::vector<SwitchNode*> fq_switches_;
  /// DRR progress per (switch, port, tenant): grants to OTHER tenants
  /// since this tenant's own last grant, and the largest rotation it has
  /// been part of since then (its legitimate worst-case wait).
  struct FqWait {
    std::uint64_t passes = 0;
    std::uint32_t max_active = 0;
  };
  std::map<std::tuple<NodeId, PortId, std::uint32_t>, FqWait> fq_waits_;

  /// Highest promotion epoch seen per lineage.
  std::map<ObjectId, std::uint32_t> max_promo_epoch_;
  /// Full lifecycle trail per lineage (for reports).
  std::map<ObjectId, std::vector<EpochEvent>> lineage_;

  /// Wire events retained for violation reports.
  static constexpr std::size_t kTraceDepth = 48;
  std::deque<WireEvent> trace_;
  std::uint64_t events_ = 0;
  std::vector<Violation> violations_;
  std::set<std::string> seen_;  // dedup (class|object|detail)
};

}  // namespace objrpc::check
