// Topology helpers: wire sets of nodes into standard shapes.
//
// The paper's §4 testbed is three hosts attached to four interconnected
// switches; the net layer builds that with these helpers.  Larger shapes
// support scale sweeps: line/star/ring/full-mesh for small fabrics, and
// generated leaf-spine / k-ary fat-tree datacenter fabrics for the
// 1000-host runs (README "Scaling the fabric").
//
// Port numbering is deterministic: Network::connect assigns each side's
// next port in call order, and the generators fix their wiring order, so
// the port maps documented on each result struct hold for every build of
// the same shape.  Routing code may rely on them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/network.hpp"

namespace objrpc {

/// s[0]-s[1]-s[2]-...-s[n-1]
void connect_line(Network& net, const std::vector<NodeId>& nodes,
                  LinkParams params = {});

/// s[0]-s[1]-...-s[n-1]-s[0]
void connect_ring(Network& net, const std::vector<NodeId>& nodes,
                  LinkParams params = {});

/// hub connected to every spoke.
void connect_star(Network& net, NodeId hub,
                  const std::vector<NodeId>& spokes, LinkParams params = {});

/// Every pair connected ("interconnected switches").
void connect_full_mesh(Network& net, const std::vector<NodeId>& nodes,
                       LinkParams params = {});

/// Node factories for the datacenter generators.  The generators stay
/// agnostic of node types (switches live in sim, protocol hosts in net):
/// the caller adds the node to the network and returns its id.  Factories
/// are invoked in a fixed, documented order, so ids are deterministic.
using SwitchFactory = std::function<NodeId(const std::string& name)>;
using HostFactory = std::function<NodeId(const std::string& name)>;

/// Two-tier leaf-spine fabric: every leaf connects to every spine, hosts
/// hang off leaves.  spines=32, leaves=32, hosts_per_leaf=32 gives the
/// 1024-host reference fabric.
struct LeafSpineParams {
  std::uint32_t spines = 2;
  std::uint32_t leaves = 4;
  std::uint32_t hosts_per_leaf = 8;
  LinkParams fabric_link;  ///< leaf <-> spine
  LinkParams host_link;    ///< host <-> leaf
};

struct LeafSpineTopology {
  LeafSpineParams params;
  std::vector<NodeId> spines;  ///< created first, in index order
  std::vector<NodeId> leaves;  ///< created second, in index order
  std::vector<NodeId> hosts;   ///< created last, leaf-major

  // Port map (fixed by wiring order):
  //   leaf l,  port s                 -> spine s           (s < spines)
  //   leaf l,  port spines + h        -> its h-th host
  //   spine s, port l                 -> leaf l
  //   host,    port 0                 -> its leaf
  std::uint32_t host_count() const {
    return params.leaves * params.hosts_per_leaf;
  }
  std::uint32_t leaf_degree() const {
    return params.spines + params.hosts_per_leaf;
  }
  std::uint32_t spine_degree() const { return params.leaves; }
  std::uint64_t total_links() const {
    return std::uint64_t{params.spines} * params.leaves +
           std::uint64_t{params.leaves} * params.hosts_per_leaf;
  }
  /// Host-to-host hop count across the fabric (links traversed):
  /// host-leaf-spine-leaf-host.
  std::uint32_t diameter_links() const { return params.leaves > 1 ? 4 : 2; }
  /// Links crossing the canonical bisection: leaves (with their hosts)
  /// split into low/high halves, spines split likewise; cross links are
  /// low-leaf->high-spine and high-leaf->low-spine.
  std::uint64_t bisection_links() const {
    return std::uint64_t{params.spines} * params.leaves / 2;
  }
};

LeafSpineTopology build_leaf_spine(Network& net, const LeafSpineParams& params,
                                   const SwitchFactory& make_switch,
                                   const HostFactory& make_host);

/// Three-tier k-ary fat-tree (Al-Fahoum/Leiserson form): (k/2)^2 cores,
/// k pods of k/2 aggregation + k/2 edge switches, k/2 hosts per edge.
/// k=16 gives the 1024-host reference fabric.  k must be even.
struct FatTreeParams {
  std::uint32_t k = 4;
  LinkParams fabric_link;  ///< edge<->agg, agg<->core
  LinkParams host_link;    ///< host <-> edge
};

struct FatTreeTopology {
  FatTreeParams params;
  std::vector<NodeId> cores;  ///< core (a, j) at index a * k/2 + j
  std::vector<NodeId> aggs;   ///< pod-major: pod p's a-th agg at p * k/2 + a
  std::vector<NodeId> edges;  ///< pod-major, like aggs
  std::vector<NodeId> hosts;  ///< edge-major

  // Port map (fixed by wiring order), with m = k/2:
  //   edge (p, e), port h       -> its h-th host          (h < m)
  //   edge (p, e), port m + a   -> agg (p, a)
  //   agg (p, a),  port e       -> edge (p, e)            (e < m)
  //   agg (p, a),  port m + j   -> core (a, j)
  //   core (a, j), port p       -> agg (p, a)
  //   host,        port 0       -> its edge
  std::uint32_t host_count() const {
    return params.k * params.k * params.k / 4;
  }
  std::uint32_t switch_count() const {
    return 5 * params.k * params.k / 4;
  }
  std::uint64_t total_links() const {
    return 3ull * host_count();  // host + edge-agg + agg-core tiers
  }
  /// Inter-pod host-to-host hop count: host-edge-agg-core-agg-edge-host.
  std::uint32_t diameter_links() const { return params.k > 1 ? 6 : 2; }
  /// Links crossing the canonical bisection: pods split into low/high
  /// halves with every core on the high side; cross links are the
  /// agg->core links of the low pods.
  std::uint64_t bisection_links() const {
    return std::uint64_t{params.k} * params.k * params.k / 8;
  }
};

FatTreeTopology build_fat_tree(Network& net, const FatTreeParams& params,
                               const SwitchFactory& make_switch,
                               const HostFactory& make_host);

}  // namespace objrpc
