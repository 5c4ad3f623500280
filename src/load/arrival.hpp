// Open-loop arrival processes for the multi-tenant load generator
// (DESIGN.md §13).
//
// An open-loop driver fixes WHEN operations arrive independently of how
// fast the system answers them — the defining property that lets a
// bench observe queueing delay instead of accidentally suppressing it
// (loadgen.hpp's LoadGenerator explains the coordinated-omission
// trap).  Three arrival shapes cover the workloads the paper's fabric
// must survive:
//
//   poisson — stationary Poisson stream at a constant rate: the
//     aggregate of a large population of independent users (the ~10^6
//     logical users a tenant models collapse into one exponential
//     inter-arrival stream at the population's summed rate).
//   on_off — bursty two-state (Markov-modulated) Poisson: `on_rate`
//     during bursts of `on_duration`, `off_rate` between them.  This is
//     the aggressor shape: bursts far above the bottleneck capacity,
//     mean below it, so queues build and drain.
//   diurnal — slow deterministic sweep between a trough and a peak rate
//     over `period` (a triangle wave, not a sinusoid: libm's sin may
//     differ across platforms at the last ulp, and arrival times feed
//     the determinism digest).
//
// All shapes are sampled by thinning (Lewis & Shedler): candidate
// arrivals at the peak rate, each accepted with probability
// rate(t)/peak.  Every draw comes from the caller-supplied Rng, so an
// arrival stream is a pure function of (config, seed).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace objrpc::load {

struct ArrivalConfig {
  enum class Kind : std::uint8_t { poisson, on_off, diurnal };
  Kind kind = Kind::poisson;

  /// poisson: the rate.  on_off: the burst rate.  diurnal: the peak.
  double rate_per_sec = 1000.0;
  /// on_off: rate between bursts.  diurnal: the trough.
  double low_rate_per_sec = 0.0;
  /// on_off: burst length.
  SimDuration on_duration = 10 * kMillisecond;
  /// on_off: gap length.
  SimDuration off_duration = 10 * kMillisecond;
  /// diurnal: full trough->peak->trough cycle length.
  SimDuration period = 1000 * kMillisecond;
};

/// Generator for one tenant's arrival stream.  next_after(t) yields the
/// first arrival strictly after `t`; calling it with each returned time
/// walks the whole stream.
class ArrivalProcess {
 public:
  ArrivalProcess(ArrivalConfig cfg, Rng rng);

  /// Instantaneous rate at absolute simulated time `t` (events/sec).
  double rate_at(SimTime t) const;

  /// First arrival strictly after `t`.
  SimTime next_after(SimTime t);

 private:
  ArrivalConfig cfg_;
  Rng rng_;
  /// The envelope rate used for thinning (max over all t).
  double peak_ = 0.0;
};

}  // namespace objrpc::load
