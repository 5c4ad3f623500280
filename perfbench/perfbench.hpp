// Shared types of the end-to-end benchmark (see NOTES.md).
//
// Every workload returns an Outcome: whether its outputs checked out,
// how many operations it attempted and lost, and a flat list of named
// metrics with units.  main.cpp prints the list and the one-line JSON
// summary the benchmark contract asks for.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/pipeline.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON summary (sample
  /// counts, check failures, rep counts).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + std::move(why));
  }
};

/// Wall-clock stopwatch for host-plane metrics.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.5);
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Host-plane summaries over timed reps.  Every rep repeats identical
/// simulated work, so a slow rep measures interference from the rest of
/// the machine (it arrives in multi-second phases on shared hosts), not
/// the program: report the uncontended quartile.
inline double rate_over_reps(const std::vector<double>& per_rep) {
  return quantile(per_rep, 0.75);
}
inline double time_over_reps(const std::vector<double>& per_rep) {
  return quantile(per_rep, 0.25);
}

/// The per-layer metrics of a traced run (--trace 1), by layer.  A
/// layer a workload does not run reports 0 (e.g. `net.*` on
/// fabric-forward).  Field names map 1:1 onto the metric names.
struct Layers {
  // load
  double ops_issued = 0, ops_completed = 0, load_setup_s = 0;
  // core
  double cluster_build_s = 0;
  // net
  double frames_per_op = 0, bytes_per_op = 0, punts_per_op = 0,
         rules_installed = 0, nacks = 0, timeouts = 0, retransmissions = 0,
         frame_decode_ns = 0, endpoint_us = 0;
  // sim
  double events = 0, events_per_op = 0, ns_per_event = 0,
         pool_reuse_ratio = 0, table_lookup_ns = 0, table_hit_ratio = 0,
         switch_punted = 0, frames_dropped = 0, queue_us = 0, wire_us = 0,
         pipeline_us = 0, fabric_build_s = 0;
  // sim.shard
  double epochs = 0, epochs_per_op = 0, cross_frames = 0, ring_overflow = 0,
         exec_ns_p50 = 0, exec_ns_sum = 0, barrier_wait_ns_p50 = 0,
         drain_ns_sum = 0, lane_util_pct_p50 = 0;
  // check
  double check_events = 0, check_violations = 0;
  // obs
  double trace_overhead = 0;
};
void add_layers(Outcome& out, const Layers& l);

// Readers shared by the workloads (measure.cpp).  Each measures a layer
// from outside, through what the library already exposes.

/// Sum of the registry counters whose names contain `part`.
std::uint64_t counter_sum(const objrpc::obs::MetricsSnapshot& s,
                          std::string_view part);
/// sim-layer counter deltas between two snapshots: payload-pool reuse,
/// switch table hit ratio, punts and dropped frames.
void read_sim_counters(const objrpc::obs::MetricsSnapshot& before,
                       const objrpc::obs::MetricsSnapshot& after, Layers& l);
/// Shard-profiler histograms (all 0 when the profiler was not armed).
void read_shard_profile(const objrpc::obs::MetricsSnapshot& s, Layers& l);
/// Mean sim time per op of the tracer's per-hop `queue`, `wire` and
/// `pipeline` spans that began at or after `from`.
void read_span_layers(const objrpc::obs::Tracer& tracer, objrpc::SimTime from,
                      double ops, Layers& l);
/// Host ns per MatchActionTable::lookup over `keys`.  lookup() bumps
/// the table's hit counters, so call it after the registry reads.
double lookup_ns(objrpc::MatchActionTable& table,
                 const std::vector<objrpc::U128>& keys);

/// Mean host ns of `fn(item)` over `items`, repeating passes for at
/// least five passes and 50 ms; the median pass is reported.  `fn`
/// returns a value folded into a sink so the work cannot be optimised
/// away.
template <typename T, typename Fn>
double time_per_item_ns(const std::vector<T>& items, Fn fn) {
  if (items.empty()) return 0.0;
  std::vector<double> passes;
  std::uint64_t sink = 0;
  Stopwatch total;
  while (passes.size() < 5 || total.seconds() < 0.05) {
    Stopwatch pass;
    for (const T& item : items) sink += fn(item);
    passes.push_back(pass.seconds() * 1e9 /
                     static_cast<double>(items.size()));
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return median(std::move(passes));
}

/// Capacity search over the fixed ladder lo, lo + step, ... <= hi:
/// the highest rung at which `passes(rate)` holds, found by bisection
/// (a rung passing implies every lower rung passes).  0 when `lo`
/// fails.
template <typename Fn>
double ladder_capacity(double lo, double step, double hi, Fn passes) {
  if (!passes(lo)) return 0.0;
  auto good = std::int64_t{0};
  auto bad = static_cast<std::int64_t>((hi - lo) / step) + 1;  // off ladder
  while (bad - good > 1) {
    const std::int64_t mid = good + (bad - good) / 2;
    if (passes(lo + step * static_cast<double>(mid))) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return lo + step * static_cast<double>(good);
}

/// "what: v0 v1 ..." (one value per rep, for the human-readable log).
inline std::string series_note(const std::string& what,
                               const std::vector<double>& values) {
  std::string s = what;
  s += ':';
  for (double v : values) {
    s += ' ';
    s += std::to_string(v);
  }
  return s;
}

/// Pins the calling thread to one CPU of the process's allowed set,
/// moving to the next CPU on every pin_next(); restores the original
/// mask on destruction.  For single-threaded timed reps only: threads
/// created while pinned inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void pin_next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Workload entry points.  `objmix` and `objmix-4shard-armed` share one
/// implementation (object_workloads.cpp); fabric-forward has its own.
Outcome run_object_workload(const Args& args, bool sharded_armed);
Outcome run_fabric_forward(const Args& args);

/// The benchmark's own tests (--selftest): returns the number of failed
/// checks after printing one line per check.
int selftest_object_shard_rows(std::uint64_t seed);
int selftest_fabric_shard_invariance(std::uint64_t seed);

}  // namespace perfbench
