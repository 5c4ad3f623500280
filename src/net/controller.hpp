// Controller-based discovery — the SDN scheme of §4.
//
// "Hosts notify controllers about objects, which are then responsible
// for updating forwarding tables of switches."  Accesses are addressed
// by object identity alone (dst_host = 0) and the switches forward them
// on pre-installed object routes: uniform 1-RTT latency, unicast only.
// The cost moves to the control plane (advertisements + rule installs)
// and to switch table capacity (§3.2's 1.8M/850K entry limits).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/discovery.hpp"
#include "net/hierarchy.hpp"
#include "net/host_node.hpp"
#include "sim/switch_node.hpp"

namespace objrpc {

/// The logically-centralized controller.  It is wired to every switch by
/// a dedicated control link and programs their tables remotely.
class ControllerNode : public HostNode {
 public:
  ControllerNode(Network& net, NodeId id, std::string name);

  /// Register the switches under management; `control_port[i]` is this
  /// node's port leading to switch i.  Call after links are wired.
  void manage(std::vector<NodeId> switches, std::vector<PortId> control_ports);

  /// Install host routes for every given host into every switch (run
  /// once at boot; the equivalent of the fabric's base forwarding state).
  void bootstrap_host_routes(const std::vector<NodeId>& host_nodes);

  /// Enable the hierarchical identifier overlay (§3.2): assign `host`
  /// to `region` and install one aggregate region route per switch.
  /// Subsequent advertisements of regional objects homed in their OWN
  /// region are covered by the aggregate and skip per-object rules;
  /// objects living outside their region still get exact routes.
  void assign_region(NodeId host, RegionId region);
  bool hierarchical() const { return !regions_.empty(); }

  /// Grant `switch_node` the in-network caching privilege (src/inc):
  /// install fabric-wide host routes for its cache agent's address (so
  /// fill replies and invalidates reach it from anywhere) and send the
  /// budgeted grant over the control link.  The agent's own switch needs
  /// no route — its pre-match hook intercepts before the match stage.
  Status enable_switch_cache(NodeId switch_node, CacheGrant grant = {});
  /// Revoke the privilege.  The cache-agent routes stay installed:
  /// coherence traffic (invalidates owed to clients the agent served,
  /// and their acks) must keep flowing after the entries are dropped.
  Status disable_switch_cache(NodeId switch_node);

  /// Node-liveness feed (wired to Network::set_node_observer by the
  /// fabric).  On a host death the controller repairs every object homed
  /// there: switch-cache entries it granted are revoked object-by-object
  /// (so no switch keeps serving a dead lineage) and the designated
  /// replica — learned via advertise_replica — is told to promote
  /// itself; its advertisement then re-points the object route.
  void on_node_down(NodeId node);
  void on_node_up(NodeId node);

  /// Known failover successors for `object` (tests / introspection).
  std::size_t replica_count(ObjectId object) const {
    auto it = replica_registry_.find(object);
    return it == replica_registry_.end() ? 0 : it->second.size();
  }

  struct Counters {
    std::uint64_t advertises = 0;
    std::uint64_t withdraws = 0;
    std::uint64_t rules_installed = 0;
    std::uint64_t rules_removed = 0;
    std::uint64_t punts_redirected = 0;
    std::uint64_t punts_unroutable = 0;
    /// Advertisements covered by a region aggregate (no exact rule).
    std::uint64_t adverts_aggregated = 0;
    std::uint64_t cache_grants = 0;
    std::uint64_t cache_revokes = 0;
    std::uint64_t replica_adverts = 0;
    /// Host deaths that triggered route repair.
    std::uint64_t failovers = 0;
    std::uint64_t promote_reqs_sent = 0;
    /// Per-object switch-cache invalidations sent during failover.
    std::uint64_t failover_cache_invalidates = 0;
    /// Objects homed on a dead host with no known replica to promote.
    std::uint64_t failovers_unrecoverable = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Where the controller believes `object` lives.
  Result<HostAddr> locate(ObjectId object) const;
  std::size_t directory_size() const { return directory_.size(); }

  /// Switches holding the caching privilege, sorted (invariant checker /
  /// deterministic reporting).
  std::vector<NodeId> caching_switches() const {
    std::vector<NodeId> out(caching_switches_.begin(),
                            caching_switches_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void on_advertise(const Frame& f);
  void on_withdraw(const Frame& f);
  void on_advertise_replica(const Frame& f);
  void on_punted(const Frame& f, PortId in_port);
  void install_everywhere(const U128& key, NodeId dest_node);
  void remove_everywhere(const U128& key);
  void send_to_switch(std::size_t switch_idx, MsgType type, Bytes payload);
  Result<std::size_t> switch_index(NodeId switch_node) const;

  /// Next-hop port from `from_switch` toward `dest_node` (BFS over the
  /// fabric graph; the controller's global topology view).
  Result<PortId> next_hop_port(NodeId from_switch, NodeId dest_node) const;

  std::vector<NodeId> switches_;
  std::vector<PortId> control_ports_;
  std::unordered_map<ObjectId, HostAddr> directory_;
  /// Failover knowledge: object -> replica holders (designated first
  /// choice); fed by advertise_replica.
  std::unordered_map<ObjectId, std::vector<ReplicaAdvert>> replica_registry_;
  /// Switches currently holding the caching privilege.
  std::unordered_set<NodeId> caching_switches_;
  /// Hierarchical overlay state: host -> region (empty = overlay off).
  std::unordered_map<NodeId, RegionId> regions_;
  Counters counters_;
  /// Declared last: detaches from the registry before members it reads.
  obs::SourceGroup metrics_;
};

/// Host-side strategy: resolution is free (the network routes on the
/// object id); creation/arrival advertise, departure withdraws.
class ControllerDiscovery final : public DiscoveryStrategy {
 public:
  ControllerDiscovery(HostNode& host, HostAddr controller_addr)
      : host_(host), controller_(controller_addr) {}

  const char* scheme_name() const override { return "controller"; }

  void resolve(ObjectId /*object*/, ResolveCallback cb) override {
    // Identity routing: the fabric already knows where objects live.
    cb(ResolveOutcome{kUnspecifiedHost, 0, false});
  }

  void on_stale(ObjectId object, HostAddr /*stale*/) override {
    // A transient race (access raced a rule update): re-advertise is the
    // new home's job; nothing to do here but let the retry flow.
    (void)object;
  }

  void on_created(ObjectId object) override { notify(MsgType::advertise, object); }
  void on_arrived(ObjectId object) override { notify(MsgType::advertise, object); }
  void on_departed(ObjectId object) override { notify(MsgType::withdraw, object); }

  void on_replica_pushed(ObjectId object, HostAddr replica,
                         bool designated) override {
    Frame f;
    f.type = MsgType::advertise_replica;
    f.dst_host = controller_;
    f.object = object;
    f.payload = encode_replica_advert(ReplicaAdvert{replica, designated});
    host_.send_frame(std::move(f));
  }

 private:
  void notify(MsgType type, ObjectId object) {
    Frame f;
    f.type = type;
    f.dst_host = controller_;
    f.object = object;
    host_.send_frame(std::move(f));
  }

  HostNode& host_;
  HostAddr controller_;
};

}  // namespace objrpc
