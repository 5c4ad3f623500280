// ShardProfiler: host-time profiler for the parallel driver
// (DESIGN.md §17).
//
// The span tracer answers "what did the FABRIC do" in sim time; this
// answers "what did the MACHINE do" in host time: per-shard epoch
// utilization, barrier-wait and coordinator-drain histograms, and
// cross-shard handoff depth per lane — the numbers that tell you
// whether a shard plan is balanced or one lane is dragging every
// barrier.  Everything lands in the MetricsRegistry under `shard/*`,
// plus a second Perfetto track family (pid 1000000+lane: host-time
// execution lanes alongside the sim-time span trees) so an imbalance
// is visible as a literal gap in the trace.
//
// Each epoch splits into the slowest lane's execution
// (`shard/max_lane_exec_ns`) and everything else the coordinator waited
// for — release latency, wake-up and finish skew (`shard/wake_skew_ns`,
// epoch minus max-lane exec) — with the barrier work after it in
// `shard/drain_host_ns`, whose two parts are `shard/land_host_ns`
// (landing the cross-shard handoffs) and `shard/replay_host_ns`
// (replaying the observer journal).
//
// Threading: each lane's series is written only by the thread that
// runs the lane (begin_exec/end_exec): a worker, or the coordinator for
// lane 0.  The coordinator reads them and writes the registry only at
// barriers, after every worker's end-of-epoch decrement has been seen
// (the driver's release/acquire barrier, sim/shard.hpp).
// Disarmed (the default), every call is a cheap early-return and the
// registry never sees a `shard/` cell — so byte-compare tests of
// traces and metric snapshots are unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace objrpc::obs {

class ShardProfiler {
 public:
  /// First pid of the shard-lane Perfetto track family (lane N =
  /// kPidBase + N, the coordinator's barrier track = kPidBase + lane
  /// count).  Far above any NodeId the sim-time span family uses as pid.
  static constexpr std::uint32_t kPidBase = 1'000'000;

  /// Arm with `workers` execution lanes.  Coordinator-only, before the
  /// first epoch.  Creates the `shard/*` registry cells.
  void arm(MetricsRegistry& metrics, std::uint32_t workers);
  bool armed() const { return armed_; }

  // ---- lane side (the lane's own thread, SPSC vs the coordinator) ----
  void begin_exec(std::uint32_t lane);
  void end_exec(std::uint32_t lane);

  // ---- coordinator side (workers parked or not yet released) ----
  void begin_epoch(std::uint64_t epoch);
  /// Workers parked again; epoch wall time ends here.
  void end_epoch();
  /// Cross-shard handoffs `lane` parked this epoch, sampled as the
  /// barrier lands them (`shard/ring_occupancy`).
  void sample_handoffs(std::uint32_t lane, std::size_t depth);
  void begin_drain();
  /// The barrier has landed its handoffs / replayed its journal.
  void end_land();
  void end_replay();
  /// End of barrier work: folds the finished epoch into the registry.
  void end_drain();

  /// Chrome trace_event JSON objects for the shard-lane track family
  /// (consumed by Tracer::chrome_trace_json as an aux event source).
  /// Host times are normalized to the first epoch.  At most the first
  /// kMaxChromeEpochs epochs are exported (metrics keep folding past
  /// the cap); empty when disarmed.
  std::vector<std::string> chrome_events() const;

 private:
  static constexpr std::size_t kMaxChromeEpochs = 4096;

  /// Monotonic host clock, ns.  The ONLY wall-clock read in the
  /// simulator; it feeds pure measurement, never behaviour.
  static std::uint64_t host_now_ns();

  struct ExecRec {
    std::uint64_t epoch;
    std::uint64_t t0, t1;  ///< host ns
  };
  struct alignas(64) LaneSeries {
    std::uint64_t open_t0 = 0;
    std::vector<ExecRec> recs;  ///< bounded by kMaxChromeEpochs
    std::uint64_t last_t0 = 0, last_t1 = 0;  ///< this epoch (for folding)
  };
  struct EpochRec {
    std::uint64_t epoch;
    std::uint64_t t_release, t_parked, t_drain0, t_landed, t_replayed,
        t_drain1;
  };
  struct HandoffRec {
    std::uint64_t epoch;
    std::uint32_t lane;
    std::uint64_t depth;
  };

  bool armed_ = false;
  std::uint32_t workers_ = 0;
  std::uint64_t cur_epoch_ = 0;
  std::uint64_t base_ns_ = 0;  ///< first epoch release (trace time 0)
  EpochRec cur_{};

  /// SHARD_LANED: lanes_[lane] is written only by the thread running
  /// that lane.  K lanes, not the K + 1 of the structures
  /// Network::size_lanes sizes: the control lane runs no epoch work, so
  /// it never begins or ends an exec.  begin_exec/end_exec index it
  /// unchecked; a lane outside 0..K-1 is a driver bug.
  SHARD_LANED std::vector<LaneSeries> lanes_;
  std::vector<EpochRec> epochs_;  ///< bounded by kMaxChromeEpochs
  std::vector<HandoffRec> handoffs_;  ///< bounded by kMaxChromeEpochs * lanes

  Histogram* h_epoch_ = nullptr;
  Histogram* h_exec_ = nullptr;
  Histogram* h_max_exec_ = nullptr;
  Histogram* h_skew_ = nullptr;
  Histogram* h_wait_ = nullptr;
  Histogram* h_drain_ = nullptr;
  Histogram* h_land_ = nullptr;
  Histogram* h_replay_ = nullptr;
  Histogram* h_util_ = nullptr;
  Histogram* h_handoff_ = nullptr;
};

}  // namespace objrpc::obs
