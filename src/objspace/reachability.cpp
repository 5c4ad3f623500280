#include "objspace/reachability.hpp"

#include <deque>
#include <limits>

namespace objrpc {

ReachabilityGraph ReachabilityGraph::build(const ObjectStore& store,
                                           const std::vector<ObjectId>& roots,
                                           std::uint32_t max_depth) {
  ReachabilityGraph g;
  std::deque<ObjectId> frontier;
  for (const auto& r : roots) {
    if (g.depth_.count(r)) continue;
    g.depth_[r] = 0;
    frontier.push_back(r);
  }
  while (!frontier.empty()) {
    const ObjectId cur = frontier.front();
    frontier.pop_front();
    const std::uint32_t d = g.depth_[cur];
    if (max_depth != 0 && d >= max_depth) continue;
    auto obj = store.get(cur);
    if (!obj) continue;  // frontier object: present as a node, no outedges
    for (std::uint32_t i = 1; i <= (*obj)->fot_count(); ++i) {
      auto entry = (*obj)->fot_entry(i);
      if (!entry) continue;
      g.edges_.push_back(ReachEdge{cur, entry->target, entry->perms});
      g.succ_[cur].push_back(entry->target);
      if (!g.depth_.count(entry->target)) {
        g.depth_[entry->target] = d + 1;
        frontier.push_back(entry->target);
      }
    }
  }
  return g;
}

std::uint32_t ReachabilityGraph::depth(ObjectId id) const {
  auto it = depth_.find(id);
  return it == depth_.end() ? std::numeric_limits<std::uint32_t>::max()
                            : it->second;
}

std::vector<ObjectId> ReachabilityGraph::successors(ObjectId id) const {
  auto it = succ_.find(id);
  return it == succ_.end() ? std::vector<ObjectId>{} : it->second;
}

}  // namespace objrpc
