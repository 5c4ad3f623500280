// ShardJournal: the shard-safe observer plane (DESIGN.md §17).
//
// The sharded event loop (DESIGN.md §16) executes events concurrently,
// which is exactly the regime observers must not perturb: a tracer
// append, a checker tap, or a node-liveness callback that grabbed a
// lock — or worse, forced the driver back to serial — would make the
// fabric unobservable at the one speed that matters.  The journal is
// the one merge-at-barrier log: during an epoch each worker appends
// closures to its OWN lane (one PerLane vector per execution lane, so
// the append is a plain push_back), every record stamped with the
// executing event's canonical EventKey.  At the BSP barrier, with all
// workers parked, the coordinator gathers the lanes, stable-sorts them
// by key and replays the closures.
//
// Why that order is the serial one: the serial driver executes events
// in ascending key order; executed events have unique keys;
// and one event's records land contiguously, in program order, in the
// one lane that executed it.  So sorting by key interleaves events
// canonically and the stable sort keeps each event's own records in
// program order — every observer sees the identical fabric-global event
// sequence, and armed parallel runs produce byte-identical traces.
//
// `deferring()` is the one "inside a concurrent epoch" flag: the packet
// taps, the tracer and the network's cross-shard handoff all read it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/canonical_key.hpp"
#include "common/per_lane.hpp"
#include "common/small_fn.hpp"
#include "common/time.hpp"

namespace objrpc::obs {

class ShardJournal {
 public:
  /// Returns the executing event's canonical key, `at` being its
  /// delivery time.  Installed by the Network (which can see the event
  /// loop); called on worker threads, so it must read only
  /// thread-local/lane-local state.
  using StampFn = std::function<EventKey()>;

  void set_stamp(StampFn fn) { stamp_ = std::move(fn); }

  /// One lane per execution lane (shards + control).  Set by
  /// Network::size_lanes before any worker thread exists.
  void configure_lanes(std::uint32_t n) { lanes_.configure(n); }

  /// True exactly while workers run a concurrent epoch.  Toggled by the
  /// parallel driver outside epochs, ordered against the workers by its
  /// barrier's release/acquire pair; everywhere else records run inline.
  void set_deferring(bool on) { deferring_ = on; }
  bool deferring() const { return deferring_; }

  /// Append `fn` to the executing lane, stamped with the executing
  /// event's canonical key.  MAY_ALLOC: lane vector growth — amortized,
  /// and only on armed runs.
  HOT_PATH MAY_ALLOC void defer(SmallFn fn) {
    lanes_.local().emplace_back(stamp_(), std::move(fn));
  }

  /// Run `f` now (serial driver, control context, or disarmed run) or
  /// journal it for barrier replay.  `f` must capture everything it
  /// needs by value: by the time a deferred record replays, the
  /// triggering event's stack is long gone.
  template <typename F>
  void run_or_defer(F&& f) {
    if (!deferring_) {
      f();
      return;
    }
    defer(SmallFn(std::forward<F>(f)));
  }

  /// Any records pending?  Coordinator-only, workers parked.
  bool empty() const {
    for (const auto& recs : lanes_) {
      if (!recs.empty()) return false;
    }
    return true;
  }

  /// Records replayed over the journal's lifetime (profiler/tests).
  std::uint64_t replayed_total() const { return replayed_total_; }

  /// Invoke every record in canonical key order and clear the lanes.
  /// `clock(at)` runs before each record so observers that read the
  /// simulation clock see the record's delivery time, exactly as they
  /// would have inline.  Coordinator-only, workers parked.
  template <typename Clock>
  void replay(Clock&& clock) {
    scratch_.clear();
    for (auto& recs : lanes_) {
      for (Rec& r : recs) scratch_.push_back(std::move(r));
      recs.clear();
    }
    std::stable_sort(
        scratch_.begin(), scratch_.end(),
        [](const Rec& a, const Rec& b) { return a.key < b.key; });
    for (Rec& r : scratch_) {
      clock(r.key.at);
      r.fn();
    }
    replayed_total_ += scratch_.size();
    scratch_.clear();  // release what the closures own promptly
  }

 private:
  struct Rec {
    EventKey key;
    SmallFn fn;
  };
  /// SHARD_LANED: a worker touches only its own lane; configure_lanes
  /// sizes it before threads exist.
  SHARD_LANED PerLane<std::vector<Rec>> lanes_;
  std::vector<Rec> scratch_;
  bool deferring_ = false;
  StampFn stamp_;
  std::uint64_t replayed_total_ = 0;
};

}  // namespace objrpc::obs
