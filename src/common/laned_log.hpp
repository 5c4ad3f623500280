// LanedLog: append on the executing lane, merge by canonical key at the
// barrier (DESIGN.md §16/§17).
//
// During a concurrent epoch every worker appends to its OWN lane — one
// PerLane vector per execution lane, so the append is a plain push_back
// with no synchronization.  Each record carries the canonical
// key (at, key_a, key_b) of the event that produced it.  At the BSP
// barrier, workers parked, the coordinator calls merge(): all lanes are
// gathered, stable-sorted by key, visited in that order, and cleared.
//
// Why that order is the serial one: the serial driver executes events in
// ascending (at, key_a, key_b); executed events have unique keys; and one
// event's records land contiguously, in program order, in the one lane
// that executed it.  So sorting by key interleaves events canonically and
// the stable sort keeps each event's own records in program order.
//
// Two users: the observer journal (T = SmallFn, replayed closures) and
// the Network's wire digest (T = the per-delivery hash).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/per_lane.hpp"
#include "common/time.hpp"

namespace objrpc {

template <typename T>
class LanedLog {
 public:
  /// One lane per execution lane (shards + control).  Setup-time only,
  /// before any worker thread exists.
  void configure_lanes(std::uint32_t n) { lanes_.configure(n); }

  /// Append to the executing lane.  MAY_ALLOC: amortized lane growth.
  HOT_PATH MAY_ALLOC void append(SimTime at, std::uint64_t key_a,
                                 std::uint64_t key_b, T value) {
    lanes_.local().push_back(Rec{at, key_a, key_b, std::move(value)});
  }

  /// Any records pending?  Coordinator-only, workers parked.
  bool empty() const {
    for (const auto& recs : lanes_) {
      if (!recs.empty()) return false;
    }
    return true;
  }

  /// Visit every record as `visit(at, value)` in canonical key order and
  /// clear the lanes; returns the number visited.  Coordinator-only,
  /// workers parked.
  template <typename Visit>
  std::size_t merge(Visit&& visit) {
    scratch_.clear();
    for (auto& recs : lanes_) {
      for (Rec& r : recs) scratch_.push_back(std::move(r));
      recs.clear();
    }
    const std::size_t n = scratch_.size();
    if (n == 0) return 0;
    std::stable_sort(scratch_.begin(), scratch_.end(),
                     [](const Rec& a, const Rec& b) {
                       if (a.at != b.at) return a.at < b.at;
                       if (a.key_a != b.key_a) return a.key_a < b.key_a;
                       return a.key_b < b.key_b;
                     });
    for (Rec& r : scratch_) visit(r.at, r.value);
    scratch_.clear();  // release what the records own promptly
    return n;
  }

 private:
  struct Rec {
    SimTime at;
    std::uint64_t key_a;
    std::uint64_t key_b;
    T value;
  };
  /// SHARD_LANED: a worker touches only its own lane; configure_lanes
  /// sizes it before threads exist.
  SHARD_LANED PerLane<std::vector<Rec>> lanes_;
  std::vector<Rec> scratch_;
};

}  // namespace objrpc
