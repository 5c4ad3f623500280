#include "net/controller.hpp"

#include <algorithm>
#include <deque>

#include "common/log.hpp"

namespace objrpc {

ControllerNode::ControllerNode(Network& net, NodeId id, std::string name)
    : HostNode(net, id, std::move(name)) {
  set_handler(MsgType::advertise, [this](const Frame& f) { on_advertise(f); });
  set_handler(MsgType::withdraw, [this](const Frame& f) { on_withdraw(f); });
  set_handler(MsgType::advertise_replica,
              [this](const Frame& f) { on_advertise_replica(f); });
  // Punted data frames arrive with types the controller does not own;
  // redirect them toward the object's home as a fallback path.
  set_default_handler([this](const Frame& f) { on_punted(f, 0); });
  metrics_.attach(metrics(), this->name() + "/controller");
  metrics_.add("advertises", [this] { return counters_.advertises; });
  metrics_.add("withdraws", [this] { return counters_.withdraws; });
  metrics_.add("rules_installed", [this] { return counters_.rules_installed; });
  metrics_.add("rules_removed", [this] { return counters_.rules_removed; });
  metrics_.add("punts_redirected",
               [this] { return counters_.punts_redirected; });
  metrics_.add("punts_unroutable",
               [this] { return counters_.punts_unroutable; });
  metrics_.add("adverts_aggregated",
               [this] { return counters_.adverts_aggregated; });
  metrics_.add("cache_grants", [this] { return counters_.cache_grants; });
  metrics_.add("cache_revokes", [this] { return counters_.cache_revokes; });
  metrics_.add("replica_adverts", [this] { return counters_.replica_adverts; });
  metrics_.add("failovers", [this] { return counters_.failovers; });
  metrics_.add("promote_reqs_sent",
               [this] { return counters_.promote_reqs_sent; });
  metrics_.add("failover_cache_invalidates",
               [this] { return counters_.failover_cache_invalidates; });
  metrics_.add("failovers_unrecoverable",
               [this] { return counters_.failovers_unrecoverable; });
}

void ControllerNode::manage(std::vector<NodeId> switches,
                            std::vector<PortId> control_ports) {
  switches_ = std::move(switches);
  control_ports_ = std::move(control_ports);
}

void ControllerNode::bootstrap_host_routes(
    const std::vector<NodeId>& host_nodes) {
  for (NodeId h : host_nodes) {
    const HostAddr addr = static_cast<HostAddr>(h) + 1;
    install_everywhere(host_route_key(addr), h);
  }
  // Also teach the fabric how to reach the controller itself, so
  // advertisements can travel in-band from any host.
  install_everywhere(host_route_key(this->addr()), id());
}

Result<HostAddr> ControllerNode::locate(ObjectId object) const {
  auto it = directory_.find(object);
  if (it == directory_.end()) {
    return Error{Errc::not_found, "object not in directory"};
  }
  return it->second;
}

void ControllerNode::assign_region(NodeId host, RegionId region) {
  regions_[host] = region;
  install_everywhere(region_route_key(region), host);
}

void ControllerNode::on_advertise(const Frame& f) {
  ++counters_.advertises;
  directory_[f.object] = f.src_host;
  // The advertiser is (now) the home; it is no longer failover material.
  if (auto rit = replica_registry_.find(f.object);
      rit != replica_registry_.end()) {
    auto& advs = rit->second;
    advs.erase(std::remove_if(advs.begin(), advs.end(),
                              [&](const ReplicaAdvert& a) {
                                return a.replica == f.src_host;
                              }),
               advs.end());
    if (advs.empty()) replica_registry_.erase(rit);
  }
  const NodeId home = static_cast<NodeId>(f.src_host - 1);
  // Hierarchical overlay: a regional object homed inside its own region
  // is already covered by the region aggregate — no exact rule needed.
  if (hierarchical() && is_regional(f.object)) {
    auto it = regions_.find(home);
    if (it != regions_.end() && it->second == region_of(f.object)) {
      ++counters_.adverts_aggregated;
      // A prior exact rule (e.g. from before a move back home) would
      // shadow correctly anyway, but drop it to reclaim table space.
      remove_everywhere(object_route_key(f.object));
      return;
    }
  }
  install_everywhere(object_route_key(f.object), home);
}

void ControllerNode::on_withdraw(const Frame& f) {
  ++counters_.withdraws;
  auto it = directory_.find(f.object);
  // Only honour the withdraw if the directory still points at the
  // withdrawing host — a newer advertise must win (move ordering).
  if (it != directory_.end() && it->second == f.src_host) {
    directory_.erase(it);
    remove_everywhere(object_route_key(f.object));
  }
}

void ControllerNode::on_advertise_replica(const Frame& f) {
  auto adv = decode_replica_advert(f.payload);
  if (!adv) return;
  ++counters_.replica_adverts;
  auto& advs = replica_registry_[f.object];
  for (auto& existing : advs) {
    if (existing.replica == adv->replica) {
      existing.designated = adv->designated;
      return;
    }
  }
  advs.push_back(*adv);
}

void ControllerNode::on_node_down(NodeId node) {
  const HostAddr dead = static_cast<HostAddr>(node) + 1;
  for (const auto& [object, home] : directory_) {
    if (home != dead) continue;
    ++counters_.failovers;
    // First fence the data plane: any switch cache holding this object
    // was filled from the dead lineage; an unversioned invalidate drops
    // the entry while preserving its forwarding obligations.
    for (NodeId sw : caching_switches_) {
      ++counters_.failover_cache_invalidates;
      Frame inv;
      inv.type = MsgType::invalidate;
      inv.dst_host = inc_cache_addr(sw);
      inv.object = object;
      send_frame(std::move(inv));
    }
    // Then repair the control plane: tell the best surviving replica to
    // promote itself.  Its advertisement (under the bumped epoch)
    // re-points the object route at it.
    const ReplicaAdvert* pick = nullptr;
    if (auto it = replica_registry_.find(object);
        it != replica_registry_.end()) {
      for (const auto& adv : it->second) {
        const NodeId replica_node = static_cast<NodeId>(adv.replica - 1);
        if (!net().node_up(replica_node)) continue;  // it died too
        if (pick == nullptr || (adv.designated && !pick->designated)) {
          pick = &adv;
        }
      }
    }
    if (pick == nullptr) {
      ++counters_.failovers_unrecoverable;
      Log::warn("ctrl", "no live replica to promote for %s",
                object.to_string().c_str());
      continue;
    }
    ++counters_.promote_reqs_sent;
    Frame req;
    req.type = MsgType::promote_req;
    req.dst_host = pick->replica;
    req.object = object;
    send_frame(std::move(req));
  }
}

void ControllerNode::on_node_up(NodeId /*node*/) {
  // Nothing to steer from here: the revived host runs its own recovery
  // probes and either resumes (no promotion happened) or demotes itself
  // against the higher epoch it discovers.
}

void ControllerNode::on_punted(const Frame& f, PortId /*in_port*/) {
  // A data frame missed every switch table (e.g. raced rule install).
  auto home = locate(f.object);
  if (!home) {
    ++counters_.punts_unroutable;
    Log::debug("ctrl", "unroutable punt for %s",
               f.object.to_string().c_str());
    return;
  }
  ++counters_.punts_redirected;
  Frame redirected = f;
  redirected.dst_host = *home;
  // Re-emit through any managed switch; host routes take it from there.
  // send_frame would overwrite src_host (the original requester), so
  // build the packet directly.
  Packet pkt = redirected.to_packet();
  if (!control_ports_.empty()) {
    loop().schedule_after(kProcessingDelay,
                          [this, pkt = std::move(pkt)]() mutable {
                            send(control_ports_.front(), std::move(pkt));
                          });
  }
}

Result<std::size_t> ControllerNode::switch_index(NodeId switch_node) const {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i] == switch_node) return i;
  }
  return Error{Errc::invalid_argument, "not a managed switch"};
}

Status ControllerNode::enable_switch_cache(NodeId switch_node,
                                           CacheGrant grant) {
  auto idx = switch_index(switch_node);
  if (!idx) return idx.error();
  ++counters_.cache_grants;
  caching_switches_.insert(switch_node);
  // Teach every OTHER switch how to reach the cache agent: fill replies
  // from homes and invalidates from writers are addressed to it.
  const U128 key = host_route_key(inc_cache_addr(switch_node));
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i] == switch_node) continue;
    auto port = next_hop_port(switches_[i], switch_node);
    if (!port) {
      Log::warn("ctrl", "no path from switch %u to caching switch %u",
                switches_[i], switch_node);
      continue;
    }
    ++counters_.rules_installed;
    send_to_switch(i, MsgType::ctrl_install,
                   encode_install_rule(InstallRule{key, *port}));
  }
  send_to_switch(*idx, MsgType::ctrl_cache_grant, encode_cache_grant(grant));
  return Status::ok();
}

Status ControllerNode::disable_switch_cache(NodeId switch_node) {
  auto idx = switch_index(switch_node);
  if (!idx) return idx.error();
  ++counters_.cache_revokes;
  caching_switches_.erase(switch_node);
  send_to_switch(*idx, MsgType::ctrl_cache_revoke, Bytes{});
  return Status::ok();
}

void ControllerNode::install_everywhere(const U128& key, NodeId dest_node) {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    auto port = next_hop_port(switches_[i], dest_node);
    if (!port) {
      Log::warn("ctrl", "no path from switch %u to node %u", switches_[i],
                dest_node);
      continue;
    }
    ++counters_.rules_installed;
    send_to_switch(i, MsgType::ctrl_install,
                   encode_install_rule(InstallRule{key, *port}));
  }
}

void ControllerNode::remove_everywhere(const U128& key) {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    ++counters_.rules_removed;
    send_to_switch(i, MsgType::ctrl_remove,
                   encode_install_rule(InstallRule{key, kInvalidPort}));
  }
}

void ControllerNode::send_to_switch(std::size_t switch_idx, MsgType type,
                                    Bytes payload) {
  Frame f;
  f.type = type;
  f.src_host = addr();
  f.payload = std::move(payload);
  Packet pkt = f.to_packet();
  const PortId port = control_ports_.at(switch_idx);
  loop().schedule_after(kProcessingDelay,
                        [this, port, pkt = std::move(pkt)]() mutable {
                          send(port, std::move(pkt));
                        });
}

Result<PortId> ControllerNode::next_hop_port(NodeId from_switch,
                                             NodeId dest_node) const {
  if (from_switch == dest_node) {
    return Error{Errc::invalid_argument, "switch routes to itself"};
  }
  // BFS from dest across the fabric; then pick the neighbour of
  // `from_switch` closest to dest.  Only switches (and the destination
  // itself) are transit nodes: hosts and the controller never forward
  // data, so paths may not pass through them even when a control link
  // would be a shortcut.
  const Network& network = net();
  const std::size_t n = network.node_count();
  std::vector<bool> is_switch(n, false);
  for (NodeId s : switches_) is_switch[s] = true;
  std::vector<std::uint32_t> dist(n, UINT32_MAX);
  std::deque<NodeId> frontier{dest_node};
  dist[dest_node] = 0;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    if (cur != dest_node && !is_switch[cur]) continue;  // no transit
    const std::size_t ports = network.port_count(cur);
    for (PortId p = 0; p < ports; ++p) {
      const NodeId peer = network.peer_of(cur, p);
      if (peer == kInvalidNode || dist[peer] != UINT32_MAX) continue;
      dist[peer] = dist[cur] + 1;
      frontier.push_back(peer);
    }
  }
  if (dist[from_switch] == UINT32_MAX) {
    return Error{Errc::unavailable, "destination unreachable"};
  }
  const std::size_t ports = network.port_count(from_switch);
  PortId best = kInvalidPort;
  std::uint32_t best_dist = UINT32_MAX;
  for (PortId p = 0; p < ports; ++p) {
    const NodeId peer = network.peer_of(from_switch, p);
    if (peer == kInvalidNode) continue;
    // Next hop must be a forwarding element or the destination itself —
    // never a host or the controller (their dist is populated because
    // they neighbour switches, but they do not forward).
    if (peer != dest_node && !is_switch[peer]) continue;
    if (dist[peer] < best_dist) {
      best_dist = dist[peer];
      best = p;
    }
  }
  if (best == kInvalidPort) {
    return Error{Errc::unavailable, "no viable next hop"};
  }
  return best;
}

}  // namespace objrpc
