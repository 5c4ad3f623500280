// Sharded multi-core execution of the event loop (DESIGN.md §16).
//
// The fabric is partitioned by topology subtree: every event source
// (node) is assigned to one of K shards, each shard owns one timing
// wheel, and the coordinator plus K - 1 worker threads drive the wheels
// concurrently under conservative-lookahead synchronization.  The
// lookahead L is the minimum, over links whose endpoints live on
// different shards, of the link's latency plus the receiving node's
// residence: if every shard has executed all events with time < M, then
// any cross-shard frame still unsent leaves at some t >= M, arrives at
// t + serialization + latency and is delivered one residence later, at
// or after M + L — so all shards may run freely up to the horizon
// H = min(M + L, limit + 1) without ever receiving a delivery behind
// their clock.  The event loop's one run loop (sim/event_loop.hpp)
// supplies `limit`, just below its next control time, and asks the
// runner for one window at a time; the runner never reads the control
// wheel.  A window on the workers is a BSP round: release the workers
// to H-1, run lane 0 on the coordinator, wait for the workers at the
// barrier, then let the network land the epoch's cross-shard handoffs
// and replay its observer journal (Network::merge_epoch_logs).
//
// The barrier spins, then parks.  The coordinator publishes the epoch
// limit and the journal's deferring flag, then bumps the epoch_seq_
// atomic (release); workers that finished the previous epoch poll it
// for a bounded spin before they park on a condvar, and the coordinator
// takes the mutex to notify only when a worker is parked.  The finish
// mirrors it: each worker's last act is a decrement of running_, the
// coordinator spins on it and then parks, and a worker notifies only a
// parked coordinator.  A barrier spins only when its epoch directly
// follows another (never at the first epoch, nor after a window the
// coordinator ran itself), only when K fits the hardware threads, and
// not on a thread the kernel has just preempted (shard.cpp).
//
// Windows that cannot pay for the round trip skip it: the coordinator
// runs them itself with the loop's key-merge, no worker woken and
// nothing to replay.  That covers every window in which ONE shard has
// all the work, and multi-shard windows while the previous one was too
// small to gain from the workers (a few dozen events).
//
// Determinism (the non-negotiable): event ORDER is a pure function of
// the canonical key set (see sim/event_loop.hpp), and every key is
// assigned by its sender's own clock and seq counter — identical in
// serial and parallel runs.  A cross-shard delivery is stamped by its
// sender, waits in the sender lane's handoff vector, and is inserted
// with its key intact at the barrier, so a 1-, 2-, 4- and
// 8-shard run of the same seed produces a byte-identical wire digest.
// tests/shard_test.cpp and the bench sweep enforce this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/time.hpp"
#include "sim/event_loop.hpp"
#include "sim/topology.hpp"

namespace objrpc {

class Network;

/// A partition of the fabric's event sources over K shards, plus the
/// conservative lookahead the partition supports.  Produce one with the
/// topology-aware planners below (or by hand in tests) and apply it
/// with Network::enable_sharding.
struct ShardPlan {
  std::uint32_t shards = 1;
  /// shard_of[node] in [0, shards).  Must cover every node.
  std::vector<std::uint32_t> shard_of;
  /// Minimum over cross-shard links of latency plus the receiver's
  /// residence (ns).  A plan with lookahead < 1 is rejected (a cross-
  /// shard delivery that can run at its send time admits no
  /// conservative horizon).
  SimDuration lookahead = 0;

  /// Leaf-spine subtree partition: leaf l (and every host hanging off
  /// it) goes to shard l % shards; spines — which touch every leaf —
  /// are spread round-robin.  Cross-shard links are exactly the
  /// leaf<->spine fabric links, so lookahead = fabric_link.latency plus
  /// the smaller switch residence.
  static ShardPlan leaf_spine(Network& net, const LeafSpineTopology& topo,
                              std::uint32_t shards);

  /// Fat-tree pod partition: pod p (edges, aggs, hosts) goes to shard
  /// p % shards; cores are spread round-robin.  Cross-shard links are
  /// agg<->core (and, when shards does not divide k, some intra-tier
  /// fabric links), never host links.
  static ShardPlan fat_tree(Network& net, const FatTreeTopology& topo,
                            std::uint32_t shards);

  /// Generic planner for arbitrary fabrics (the OBJRPC_SHARDS path):
  /// multi-port nodes (switches, controllers) are treated as subtree
  /// anchors and dealt round-robin across shards; single-port nodes
  /// (hosts) follow the shard of their only peer, keeping every
  /// host<->switch link intra-shard.
  static ShardPlan by_switch_groups(Network& net, std::uint32_t shards);

  /// Minimum, over links whose endpoints land on different shards under
  /// `shard_of`, of the link's latency plus the receiving end's
  /// receive_residence(): a delivery executes one residence after it
  /// arrives (DESIGN.md §16).  0 when no link crosses — which also
  /// rejects the plan, conservatively: such a partition means the
  /// fabric is disconnected across shards and a single shard loses
  /// nothing.
  static SimDuration min_cross_latency(Network& net,
                                       const std::vector<std::uint32_t>& shard_of);
};

/// Drives K shard wheels, lane 0 on the coordinator and the rest on
/// K - 1 worker threads, in conservative-lookahead windows.  Installed
/// by Network::enable_sharding as the event loop's ParallelDriver;
/// armed observers do not stop it (their observations defer into the
/// shard journal and replay at the barrier).  Under the
/// OBJRPC_SHARDS_SERIAL kill switch enable_sharding builds none, and the
/// loop's key-merge produces the identical order on one thread instead.
class ShardRunner final : public EventLoop::ParallelDriver {
 public:
  ShardRunner(Network& net, SimDuration lookahead, std::uint32_t shards);
  ~ShardRunner() override;
  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// EventLoop::ParallelDriver: run the window [M, min(M + L - 1,
  /// limit)], M the earliest pending shard event, on the coordinator or
  /// the workers, then the barrier work and the barrier hook.  Returns
  /// false, running nothing, when no shard event lies at or below
  /// `limit`.
  bool run_window(SimTime limit) override;

  /// Always 0: cross-shard handoffs wait in growable per-lane vectors
  /// (Network::hand_off) and never overflow.  Its one remaining reader
  /// is perfbench's `sim.shard.ring_overflow` column.
  std::uint64_t overflow_count() const { return 0; }
  /// Completed epochs (BSP rounds on the workers) so far.
  std::uint64_t epochs() const { return epochs_; }
  /// Windows the coordinator ran itself, no worker woken (see the file
  /// header).
  std::uint64_t coordinator_windows() const { return coordinator_windows_; }
  /// Cross-shard deliveries landed at barriers so far.
  std::uint64_t cross_frames() const { return cross_frames_; }

  // --- test hooks ----------------------------------------------------
  /// Replace the computed lookahead with `h` (an h larger than the real
  /// lookahead makes the runner UNSOUND: cross-shard frames can arrive
  /// behind the destination wheel's clock, which the wheel reports as a
  /// lookahead violation — the abort path shard_test exercises).
  void set_horizon_override_for_test(SimDuration h) { horizon_override_ = h; }
  /// Send every window to the workers, however little it holds: keeps
  /// the epoch machinery (handoffs, journal, replay) under test on
  /// workloads whose windows the coordinator would otherwise run.
  void force_worker_epochs_for_test() { force_workers_ = true; }
  /// Pause instructions a thread polls the barrier for before it parks
  /// (while it goes unpreempted, see shard.cpp); 0 when K exceeds the
  /// hardware threads (nothing spins).
  std::uint32_t spin_pauses() const { return spin_pauses_; }
  /// Spin exactly `n` pauses per wait, preempted or not.  Call before
  /// the first window; the epoch release publishes it.
  void set_spin_pauses_for_test(std::uint32_t n) {
    spin_pauses_ = n;
    spin_gated_ = false;
  }
  /// Workers parked on the barrier's condvar right now.
  std::uint32_t parked_workers() const { return sleepers_.load(); }

 private:
  /// Run one BSP epoch: release the workers, run lane 0 here, and
  /// return once every lane has run to `limit` (inclusive).  Caller
  /// does the barrier work.
  void run_epoch(SimTime limit);
  /// Drive `lane`'s wheel to `limit` (worker threads and, for lane 0,
  /// the coordinator).
  void run_lane(std::uint32_t lane, SimTime limit);
  /// The calling thread's spin bound for a barrier wait; 0 unless the
  /// epoch came `back_to_back` with the one before.
  std::uint32_t spin_bound(bool back_to_back) const;
  void worker_main(std::uint32_t lane);

  Network& net_;
  const SimDuration lookahead_;
  const std::uint32_t shards_;
  SimDuration horizon_override_ = 0;
  bool force_workers_ = false;

  // Epoch barrier (see the file header).  The release bump of
  // epoch_seq_ publishes the epoch limit, the journal's deferring flag
  // and the barrier's landings to the workers; their decrements of
  // running_ publish the epoch's lane state back.  mu_ guards only the
  // condvar waits: each parked flag and the counter it guards are
  // seq_cst on both sides, so a waker either sees the sleeper or the
  // sleeper sees the new value before it waits.
  std::uint32_t spin_pauses_;
  bool spin_gated_ = true;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::atomic<std::uint64_t> epoch_seq_{0};
  std::atomic<std::uint32_t> running_{0};
  std::atomic<std::uint32_t> sleepers_{0};  ///< workers parked on cv_work_
  std::atomic<bool> coordinator_parked_{false};
  std::atomic<bool> stop_{false};
  SimTime epoch_limit_ = 0;
  /// Whether this epoch's barrier spins (published with the release).
  bool spin_ = false;
  /// The last window ran on the workers too.
  bool back_to_back_ = false;

  /// Per-lane next event time of the current window scan.
  std::vector<SimTime> next_at_;
  /// Events the last multi-shard window executed.  Starts "enough":
  /// the first multi-shard window has nothing to be judged by and goes
  /// to the workers, so any run with multi-shard work shows at least one
  /// worker epoch (perfbench's selftest takes `epochs() > 0` as its
  /// evidence that a 4-shard run went concurrent).
  std::uint64_t last_window_events_ = ~std::uint64_t{0};

  std::uint64_t epochs_ = 0;
  std::uint64_t coordinator_windows_ = 0;
  std::uint64_t cross_frames_ = 0;
  std::vector<std::thread> threads_;  ///< lanes 1 .. K-1
};

}  // namespace objrpc
