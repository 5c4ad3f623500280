// Reachability graphs over foreign-object tables (§3.1).
//
// The FOT gives the system a "translucent view into application
// semantics": which objects an object actually references.  The paper
// proposes prefetching on this *identity-based reachability* instead of
// today's proxy, physical adjacency.  This module derives that graph from
// a store's FOTs; the core prefetcher consumes it, and the ABL-PREFETCH
// bench compares it against an adjacency prefetcher.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "objspace/store.hpp"

namespace objrpc {

/// Directed edge: `from` holds a FOT entry naming `to`.
struct ReachEdge {
  ObjectId from;
  ObjectId to;
  Perm perms = Perm::none;
};

/// The reachability graph rooted at a set of objects.
class ReachabilityGraph {
 public:
  /// BFS from `roots` over FOT entries, resolving targets in `store`.
  /// Targets not resident in the store still appear as nodes (frontier
  /// objects are precisely what a prefetcher wants to fetch).
  /// `max_depth == 0` means unbounded.
  static ReachabilityGraph build(const ObjectStore& store,
                                 const std::vector<ObjectId>& roots,
                                 std::uint32_t max_depth = 0);

  const std::vector<ReachEdge>& edges() const { return edges_; }

  bool reachable(ObjectId id) const { return depth_.count(id) != 0; }
  /// Depth of `id` from the nearest root; 0 for roots.  UINT32_MAX if
  /// unreachable.
  std::uint32_t depth(ObjectId id) const;

  /// Direct successors of `id` in discovery order.
  std::vector<ObjectId> successors(ObjectId id) const;

  std::size_t node_count() const { return depth_.size(); }

 private:
  std::vector<ReachEdge> edges_;
  std::unordered_map<ObjectId, std::uint32_t> depth_;
  std::unordered_map<ObjectId, std::vector<ObjectId>> succ_;
};

}  // namespace objrpc
