// Sharded multi-core execution of the event loop (DESIGN.md §16).
//
// The fabric is partitioned by topology subtree: every event source
// (node) is assigned to one of K shards, each shard owns one timing
// wheel, and K worker threads drive the wheels concurrently under
// conservative-lookahead synchronization.  The lookahead L is the
// minimum latency of any link whose endpoints live on different shards:
// if every shard has executed all events with time < M, then any
// cross-shard frame still unsent leaves at some t >= M and arrives at
// t + serialization + L > M + L (its delivery event runs at the arrival
// plus the receiver's residence, later still) — so all shards may run
// freely up to the horizon H = min(M + L, limit + 1) without ever
// receiving a frame behind their clock.  The event loop's one run loop
// (sim/event_loop.hpp) supplies `limit`, just below its next control
// time, and asks the runner for one window at a time; the runner never
// reads the control wheel.  A window on the workers is a BSP round:
// release workers to H-1, park them at a barrier, then let the network
// land the epoch's cross-shard handoffs and merge its digest and
// journal logs (Network::merge_epoch_logs).
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
  /// Minimum latency of any cross-shard link (ns).  A plan with
  /// lookahead < 1 is rejected (zero-latency cross-shard links admit no
  /// conservative horizon).
  SimDuration lookahead = 0;

  /// The trivial plan: everything on one shard (serial execution).
  static ShardPlan single();

  /// Leaf-spine subtree partition: leaf l (and every host hanging off
  /// it) goes to shard l % shards; spines — which touch every leaf —
  /// are spread round-robin.  Cross-shard links are exactly the
  /// leaf<->spine fabric links, so lookahead = fabric_link.latency.
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

  /// Minimum latency over links whose endpoints land on different
  /// shards under `shard_of` (0 when no link crosses — which also
  /// rejects the plan, conservatively: such a partition means the
  /// fabric is disconnected across shards and a single shard loses
  /// nothing).
  static SimDuration min_cross_latency(Network& net,
                                       const std::vector<std::uint32_t>& shard_of);
};

/// Drives K shard wheels on K worker threads in conservative-lookahead
/// windows.  Installed by Network::enable_sharding as the event loop's
/// ParallelDriver; armed observers do not stop it (their observations
/// defer into the shard journal and replay at the barrier).  Under the
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

 private:
  /// Run one BSP epoch: every worker drives its wheel to `limit`
  /// (inclusive), then parks.  Caller does the barrier work.
  void run_epoch(SimTime limit);
  void worker_main(std::uint32_t lane);

  Network& net_;
  const SimDuration lookahead_;
  const std::uint32_t shards_;
  SimDuration horizon_override_ = 0;
  bool force_workers_ = false;

  // Epoch barrier.  epoch_seq_ bumps to release workers; running_
  // counts them back in.  All worker<->coordinator visibility (the
  // epoch limit, the journal's deferring flag, the network's handoff
  // lanes) is ordered by mu_.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_seq_ = 0;
  SimTime epoch_limit_ = 0;
  std::uint32_t running_ = 0;
  bool stop_ = false;

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
  std::vector<std::thread> threads_;
};

}  // namespace objrpc
