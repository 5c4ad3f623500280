#include "net/fabric.hpp"

#include <deque>
#include <unordered_set>

#include "common/log.hpp"

namespace objrpc {

namespace {

/// Per-switch duplicate suppression for flooded frames: remembers recent
/// frame ids so flood copies traverse each switch at most once, which
/// lets broadcast terminate on arbitrary (cyclic) topologies.  Keyed on
/// Packet::frame_id (unique per emission) — NOT the causal trace_id,
/// which fragments and retransmissions of one operation share.
class FloodDedup {
 public:
  explicit FloodDedup(std::size_t capacity = 8192) : capacity_(capacity) {}

  /// True if this frame id was seen before (and records it).
  bool seen_before(std::uint64_t frame_id) {
    if (seen_.count(frame_id)) return true;
    seen_.insert(frame_id);
    order_.push_back(frame_id);
    while (order_.size() > capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return false;
  }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
};

}  // namespace

void program_e2e_switch(SwitchNode& sw) {
  // Learning + dedup state lives in the hook closure; one per switch.
  auto dedup = std::make_shared<FloodDedup>();
  sw.set_pre_match_hook([dedup](SwitchNode& self, PortId in_port,
                                const Packet& pkt) {
    if (dedup->seen_before(pkt.frame_id)) return true;  // kill loops
    auto view = Frame::peek(pkt);
    if (!view) return true;  // not our protocol: drop
    // Self-learning: the source host is reachable through the ingress
    // port (exactly MAC learning, but on host identity).
    if (view->src_host != kUnspecifiedHost) {
      (void)self.table().insert(host_route_key(view->src_host),
                                Action::forward_to(in_port));
    }
    return false;
  });
  sw.set_key_extractor([](const Packet& pkt) -> std::optional<ParsedKey> {
    auto view = Frame::peek(pkt);
    if (!view) return std::nullopt;
    if ((view->flags & kFlagBroadcast) != 0) {
      return ParsedKey{U128{}, true};
    }
    if (view->dst_host != kUnspecifiedHost) {
      return ParsedKey{host_route_key(view->dst_host), false};
    }
    return std::nullopt;  // E2E frames always carry a destination host
  });
  // Unknown unicast floods (the destination's frames will teach us).
  sw.set_default_action(Action::flood());
}

void program_controller_switch(SwitchNode& sw, PortId punt_port) {
  sw.set_punt_port(punt_port);
  sw.set_pre_match_hook([](SwitchNode& self, PortId /*in_port*/,
                           const Packet& pkt) {
    auto view = Frame::peek(pkt);
    if (!view) return true;
    if (view->type == MsgType::ctrl_install ||
        view->type == MsgType::ctrl_remove) {
      auto frame = Frame::decode(pkt.data);
      if (!frame) return true;
      auto rule = decode_install_rule(frame->payload);
      if (!rule) return true;
      if (frame->type == MsgType::ctrl_install) {
        (void)self.table().insert(rule->key, Action::forward_to(rule->out_port));
      } else {
        (void)self.table().erase(rule->key);
      }
      return true;  // control frames terminate here
    }
    return false;
  });
  sw.set_key_extractor([](const Packet& pkt) -> std::optional<ParsedKey> {
    auto view = Frame::peek(pkt);
    if (!view) return std::nullopt;
    // Host-addressed frames (replies, control-plane, pushes) route on
    // the host key; identity-addressed frames route on the object id,
    // falling back to the region aggregate for hierarchical ids.
    if (view->dst_host != kUnspecifiedHost) {
      return ParsedKey{host_route_key(view->dst_host), false};
    }
    ParsedKey key{object_route_key(view->object), false};
    if (is_regional(view->object)) {
      key.fallback = region_route_key(region_of(view->object));
    }
    return key;
  });
  // Misses escalate to the controller, which redirects and repairs.
  sw.set_default_action(Action::punt());
}

std::unique_ptr<Fabric> Fabric::build(const FabricConfig& cfg) {
  auto fabric = std::unique_ptr<Fabric>(new Fabric(cfg));
  Network& net = fabric->net_;

  // Switches.
  std::vector<NodeId> switch_ids;
  for (std::size_t i = 0; i < cfg.num_switches; ++i) {
    auto& sw = net.add_node<SwitchNode>("sw" + std::to_string(i),
                                        cfg.switch_cfg);
    fabric->switches_.push_back(&sw);
    switch_ids.push_back(sw.id());
  }
  switch (cfg.topology) {
    case SwitchTopology::full_mesh:
      connect_full_mesh(net, switch_ids, cfg.switch_link);
      break;
    case SwitchTopology::ring:
      connect_ring(net, switch_ids, cfg.switch_link);
      break;
    case SwitchTopology::line:
      connect_line(net, switch_ids, cfg.switch_link);
      break;
    case SwitchTopology::star:
      if (switch_ids.size() > 1) {
        connect_star(net, switch_ids.front(),
                     {switch_ids.begin() + 1, switch_ids.end()},
                     cfg.switch_link);
      }
      break;
  }

  // Hosts, round-robin across switches.
  std::vector<NodeId> host_ids;
  for (std::size_t i = 0; i < cfg.num_hosts; ++i) {
    auto& h = net.add_node<HostNode>("host" + std::to_string(i), i);
    fabric->hosts_.push_back(&h);
    host_ids.push_back(h.id());
    net.connect(h.id(), switch_ids[i % switch_ids.size()], cfg.host_link);
  }

  // Controller (controller scheme only), star-wired to every switch.
  std::vector<PortId> ctrl_ports;
  std::vector<PortId> punt_ports;
  if (cfg.scheme == DiscoveryScheme::controller) {
    auto& ctrl = net.add_node<ControllerNode>("controller");
    fabric->controller_ = &ctrl;
    for (NodeId sw : switch_ids) {
      auto [cport, sport] = net.connect(ctrl.id(), sw, cfg.ctrl_link);
      ctrl_ports.push_back(cport);
      punt_ports.push_back(sport);
    }
    ctrl.manage(switch_ids, ctrl_ports);
  }

  // Program the switches (after all links exist, so ports are final).
  for (std::size_t i = 0; i < fabric->switches_.size(); ++i) {
    if (cfg.scheme == DiscoveryScheme::e2e) {
      program_e2e_switch(*fabric->switches_[i]);
    } else {
      program_controller_switch(*fabric->switches_[i], punt_ports[i]);
    }
  }

  // Services with the per-scheme discovery strategy.
  for (std::size_t i = 0; i < fabric->hosts_.size(); ++i) {
    std::unique_ptr<DiscoveryStrategy> strategy;
    if (cfg.scheme == DiscoveryScheme::e2e) {
      strategy = std::make_unique<E2EDiscovery>(*fabric->hosts_[i],
                                                cfg.e2e_cfg);
    } else {
      strategy = std::make_unique<ControllerDiscovery>(
          *fabric->hosts_[i], fabric->controller_->addr());
    }
    fabric->services_.push_back(std::make_unique<ObjNetService>(
        *fabric->hosts_[i], std::move(strategy), cfg.reliable_cfg));
  }

  // Base forwarding state for the controller scheme, plus the liveness
  // feed that drives failover route repair.
  if (fabric->controller_ != nullptr) {
    ControllerNode* ctrl = fabric->controller_;
    net.set_node_observer([ctrl](NodeId n, bool up) {
      if (n == ctrl->id()) return;  // its own death steers nothing
      if (up) {
        ctrl->on_node_up(n);
      } else {
        ctrl->on_node_down(n);
      }
    });
    fabric->controller_->bootstrap_host_routes(host_ids);
    fabric->settle();
  }
  return fabric;
}

E2EDiscovery* Fabric::e2e_of(std::size_t i) {
  if (cfg_.scheme != DiscoveryScheme::e2e) return nullptr;
  return static_cast<E2EDiscovery*>(&services_.at(i)->discovery());
}

}  // namespace objrpc
