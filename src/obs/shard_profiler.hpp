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
// Threading: workers write only their own lane's series (begin_exec/
// end_exec); the coordinator reads them and writes the registry only
// at barriers with workers parked, ordered by the driver's mutex.
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
  /// First pid of the shard-lane Perfetto track family (worker lane N
  /// = kPidBase + N, coordinator = kPidBase + worker count).  Far above
  /// any NodeId the sim-time span family uses as pid.
  static constexpr std::uint32_t kPidBase = 1'000'000;

  /// Arm with `workers` execution lanes.  Coordinator-only, before any
  /// worker thread exists.  Creates the `shard/*` registry cells.
  void arm(MetricsRegistry& metrics, std::uint32_t workers);
  bool armed() const { return armed_; }

  // ---- worker side (lane-owned, SPSC vs the coordinator) ----
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
  /// End of barrier work: folds the finished epoch into the registry.
  /// `cross_total` is the driver's cumulative cross-shard count.
  void end_drain(std::uint64_t cross_total);

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
    std::uint64_t t_release, t_parked, t_drain0, t_drain1;
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
  std::uint64_t last_cross_ = 0;
  EpochRec cur_{};

  /// SHARD_LANED: lanes_[lane] is written only by that worker thread.
  SHARD_LANED std::vector<LaneSeries> lanes_;
  std::vector<EpochRec> epochs_;  ///< bounded by kMaxChromeEpochs
  std::vector<HandoffRec> handoffs_;  ///< bounded by kMaxChromeEpochs * lanes

  Histogram* h_epoch_ = nullptr;
  Histogram* h_exec_ = nullptr;
  Histogram* h_wait_ = nullptr;
  Histogram* h_drain_ = nullptr;
  Histogram* h_util_ = nullptr;
  Histogram* h_handoff_ = nullptr;
  Counter* c_epochs_ = nullptr;
  Counter* c_cross_ = nullptr;
};

}  // namespace objrpc::obs
