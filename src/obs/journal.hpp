// ShardJournal: the shard-safe observer plane (DESIGN.md §17).
//
// The sharded event loop (DESIGN.md §16) executes events concurrently,
// which is exactly the regime observers must not perturb: a tracer
// append, a checker tap, or a node-liveness callback that grabbed a
// lock — or worse, forced the driver back to serial — would make the
// fabric unobservable at the one speed that matters.  The journal
// carries arbitrary observer callbacks through the same LanedLog as the
// wire digest (common/laned_log.hpp): during an epoch each worker
// appends closures to its OWN lane, every record stamped with the
// executing event's canonical key (at, key_a, key_b).  At the BSP
// barrier, with all workers parked, the coordinator merges the lanes in
// canonical order and replays the closures — the exact order the serial
// driver would have executed them in — so every observer sees the
// identical fabric-global event sequence and armed parallel runs produce
// byte-identical traces and digests.
//
// `deferring()` is the one "inside a concurrent epoch" flag: the wire
// digest, the packet taps, the tracer and the network's cross-shard
// handoff all read it.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/annotations.hpp"
#include "common/laned_log.hpp"
#include "common/small_fn.hpp"
#include "common/time.hpp"

namespace objrpc::obs {

class ShardJournal {
 public:
  /// Fills in the executing event's delivery time and canonical key.
  /// Installed by the Network (which can see the event loop); called on
  /// worker threads, so it must read only thread-local/lane-local state.
  using StampFn =
      std::function<void(SimTime& at, std::uint64_t& ka, std::uint64_t& kb)>;

  void set_stamp(StampFn fn) { stamp_ = std::move(fn); }

  /// One lane per execution lane (shards + control).  Called by
  /// Network::enable_sharding before any worker thread exists.
  void configure_lanes(std::uint32_t n) { log_.configure_lanes(n); }

  /// True exactly while workers run a concurrent epoch.  Toggled by the
  /// parallel driver outside epochs, ordered against the workers by its
  /// barrier's release/acquire pair; everywhere else records run inline.
  void set_deferring(bool on) { deferring_ = on; }
  bool deferring() const { return deferring_; }

  /// Append `fn` to the current lane, stamped with the executing
  /// event's canonical key.  MAY_ALLOC: lane vector growth — amortized,
  /// and only on armed runs.
  HOT_PATH MAY_ALLOC void defer(SmallFn fn) {
    SimTime at = 0;
    std::uint64_t ka = 0;
    std::uint64_t kb = 0;
    stamp_(at, ka, kb);
    log_.append(at, ka, kb, std::move(fn));
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
  bool empty() const { return log_.empty(); }

  /// Records replayed over the journal's lifetime (profiler/tests).
  std::uint64_t replayed_total() const { return replayed_total_; }

  /// Invoke every record in canonical key order.  `clock(at)` runs
  /// before each record so observers that read the simulation clock see
  /// the record's delivery time, exactly as they would have inline.
  /// Coordinator-only, workers parked.
  template <typename Clock>
  void replay(Clock&& clock) {
    replayed_total_ += log_.merge([&clock](SimTime at, SmallFn& fn) {
      clock(at);
      fn();
    });
  }

 private:
  LanedLog<SmallFn> log_;
  bool deferring_ = false;
  StampFn stamp_;
  std::uint64_t replayed_total_ = 0;
};

}  // namespace objrpc::obs
