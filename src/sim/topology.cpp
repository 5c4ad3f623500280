#include "sim/topology.hpp"

#include <cstdio>
#include <initializer_list>

namespace objrpc {

namespace {

/// "<prefix><i>[-<j>[-<k>]]", the fabric builders' node names.  Built
/// by append: chained std::string operator+ here trips GCC 12's false
/// -Wrestrict positive, which -Werror would turn into a build break.
std::string indexed_name(const char* prefix,
                         std::initializer_list<std::size_t> indices) {
  std::string name = prefix;
  const char* sep = "";
  for (const std::size_t i : indices) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%s%zu", sep, i);
    name.append(buf);
    sep = "-";
  }
  return name;
}

}  // namespace

void connect_line(Network& net, const std::vector<NodeId>& nodes,
                  LinkParams params) {
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    net.connect(nodes[i], nodes[i + 1], params);
  }
}

void connect_ring(Network& net, const std::vector<NodeId>& nodes,
                  LinkParams params) {
  connect_line(net, nodes, params);
  if (nodes.size() > 2) {
    net.connect(nodes.back(), nodes.front(), params);
  }
}

void connect_star(Network& net, NodeId hub,
                  const std::vector<NodeId>& spokes, LinkParams params) {
  for (NodeId s : spokes) {
    net.connect(hub, s, params);
  }
}

void connect_full_mesh(Network& net, const std::vector<NodeId>& nodes,
                       LinkParams params) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      net.connect(nodes[i], nodes[j], params);
    }
  }
}

LeafSpineTopology build_leaf_spine(Network& net, const LeafSpineParams& params,
                                   const SwitchFactory& make_switch,
                                   const HostFactory& make_host) {
  LeafSpineTopology topo;
  topo.params = params;
  topo.spines.reserve(params.spines);
  for (std::uint32_t s = 0; s < params.spines; ++s) {
    topo.spines.push_back(make_switch(indexed_name("spine", {s})));
  }
  topo.leaves.reserve(params.leaves);
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    topo.leaves.push_back(make_switch(indexed_name("leaf", {l})));
  }
  topo.hosts.reserve(std::size_t{params.leaves} * params.hosts_per_leaf);
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    for (std::uint32_t h = 0; h < params.hosts_per_leaf; ++h) {
      topo.hosts.push_back(make_host(indexed_name("h", {l, h})));
    }
  }
  // Uplinks first so leaf ports [0, spines) point at the spines; spine
  // port l faces leaf l because leaves connect in index order.
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    for (std::uint32_t s = 0; s < params.spines; ++s) {
      net.connect(topo.leaves[l], topo.spines[s], params.fabric_link);
    }
  }
  // Host links after: leaf port spines + h faces its h-th host.
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    for (std::uint32_t h = 0; h < params.hosts_per_leaf; ++h) {
      net.connect(topo.leaves[l],
                  topo.hosts[std::size_t{l} * params.hosts_per_leaf + h],
                  params.host_link);
    }
  }
  return topo;
}

FatTreeTopology build_fat_tree(Network& net, const FatTreeParams& params,
                               const SwitchFactory& make_switch,
                               const HostFactory& make_host) {
  const std::uint32_t k = params.k;
  const std::uint32_t m = k / 2;  // half-width: hosts/edges/aggs per group
  FatTreeTopology topo;
  topo.params = params;
  topo.cores.reserve(std::size_t{m} * m);
  for (std::uint32_t a = 0; a < m; ++a) {
    for (std::uint32_t j = 0; j < m; ++j) {
      topo.cores.push_back(make_switch(indexed_name("core", {a, j})));
    }
  }
  topo.aggs.reserve(std::size_t{k} * m);
  topo.edges.reserve(std::size_t{k} * m);
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t a = 0; a < m; ++a) {
      topo.aggs.push_back(make_switch(indexed_name("agg", {p, a})));
    }
  }
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < m; ++e) {
      topo.edges.push_back(make_switch(indexed_name("edge", {p, e})));
    }
  }
  topo.hosts.reserve(std::size_t{k} * m * m);
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < m; ++e) {
      for (std::uint32_t h = 0; h < m; ++h) {
        topo.hosts.push_back(make_host(indexed_name("h", {p, e, h})));
      }
    }
  }
  // Tier 1: hosts, so edge ports [0, m) face hosts in index order.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < m; ++e) {
      const NodeId edge = topo.edges[std::size_t{p} * m + e];
      for (std::uint32_t h = 0; h < m; ++h) {
        net.connect(edge, topo.hosts[(std::size_t{p} * m + e) * m + h],
                    params.host_link);
      }
    }
  }
  // Tier 2: within each pod, edge ports [m, k) face aggs in index order;
  // agg port e faces edge e because edges connect in index order.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < m; ++e) {
      for (std::uint32_t a = 0; a < m; ++a) {
        net.connect(topo.edges[std::size_t{p} * m + e],
                    topo.aggs[std::size_t{p} * m + a], params.fabric_link);
      }
    }
  }
  // Tier 3: pod p's a-th agg uplinks to core row a; core (a, j) gains
  // port p per pod because pods connect in index order.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t a = 0; a < m; ++a) {
      for (std::uint32_t j = 0; j < m; ++j) {
        net.connect(topo.aggs[std::size_t{p} * m + a],
                    topo.cores[std::size_t{a} * m + j], params.fabric_link);
      }
    }
  }
  return topo;
}

}  // namespace objrpc
