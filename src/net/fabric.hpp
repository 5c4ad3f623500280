// Fabric: assembles a complete deployment — switches, hosts, controller,
// links, and switch programs — for either discovery scheme.
//
// The default configuration reproduces the paper's §4 testbed: three
// hosts ("one VM drove accesses to objects and the other two responded")
// attached to four interconnected switches, with an SDN controller added
// for the controller scheme.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/controller.hpp"
#include "net/discovery_e2e.hpp"
#include "net/service.hpp"
#include "sim/switch_node.hpp"
#include "sim/topology.hpp"

namespace objrpc {

enum class DiscoveryScheme { e2e, controller };
enum class SwitchTopology { full_mesh, ring, line, star };

struct FabricConfig {
  DiscoveryScheme scheme = DiscoveryScheme::e2e;
  SwitchTopology topology = SwitchTopology::full_mesh;
  std::size_t num_switches = 4;
  std::size_t num_hosts = 3;
  std::uint64_t seed = 1;

  LinkParams host_link{};    // host <-> switch
  LinkParams switch_link{};  // switch <-> switch
  LinkParams ctrl_link{};    // controller <-> switch

  SwitchConfig switch_cfg{};
  E2EConfig e2e_cfg{};
  ReliableConfig reliable_cfg{};
};

/// Programs a switch for the E2E scheme: self-learning host routes,
/// flooding with per-switch duplicate suppression, unknown-unicast flood.
void program_e2e_switch(SwitchNode& sw);

/// Programs a switch for the controller scheme: object- and host-route
/// exact matching, control-plane rule installation, punt on miss.
void program_controller_switch(SwitchNode& sw, PortId punt_port);

/// A built deployment.
class Fabric {
 public:
  static std::unique_ptr<Fabric> build(const FabricConfig& cfg);

  Network& network() { return net_; }
  EventLoop& loop() { return net_.loop(); }
  const FabricConfig& config() const { return cfg_; }

  std::size_t host_count() const { return hosts_.size(); }
  HostNode& host(std::size_t i) { return *hosts_.at(i); }
  ObjNetService& service(std::size_t i) { return *services_.at(i); }
  SwitchNode& switch_at(std::size_t i) { return *switches_.at(i); }
  std::size_t switch_count() const { return switches_.size(); }
  /// Null under the E2E scheme.
  ControllerNode* controller() { return controller_; }

  /// The E2E strategy of host i (null under the controller scheme).
  E2EDiscovery* e2e_of(std::size_t i);

  /// Drain all in-flight events (e.g. after bootstrap or adverts).
  void settle() { net_.loop().run(); }

 private:
  explicit Fabric(const FabricConfig& cfg) : cfg_(cfg), net_(cfg.seed) {}

  FabricConfig cfg_;
  Network net_;
  std::vector<SwitchNode*> switches_;
  std::vector<HostNode*> hosts_;
  std::vector<std::unique_ptr<ObjNetService>> services_;
  ControllerNode* controller_ = nullptr;
};

}  // namespace objrpc
