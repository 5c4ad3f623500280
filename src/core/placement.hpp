// The placement engine: where should code and data rendezvous? (§3.1)
//
// "In our model the programmer would not be directly asking Carol to
// perform the computation; instead the placement decision would be made
// by the system."  Because data moves by byte-copy, transfer costs are
// exactly payload bytes over link bandwidth — §3.1 notes these "can now
// be included in cost-models … as they do not need to take the
// additional loading time into account."  The engine scores every
// candidate executor on:
//
//   transfer  — bytes of argument data not already resident there
//   compute   — code-cost annotation over touched bytes, scaled by the
//               candidate's compute rate and current load
//   capacity  — candidates without memory for the moved data are skipped
//
// and returns the argmin.  The model is pure and deterministic so the
// decision logic is unit-testable in isolation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/time.hpp"
#include "core/code.hpp"
#include "net/objnet.hpp"

namespace objrpc {

/// A candidate executor as the placement engine sees it.
struct HostProfile {
  HostAddr addr = kUnspecifiedHost;
  /// Sustained compute rate in operations per nanosecond.
  double compute_ops_per_ns = 1.0;
  /// Current utilization in [0, 1); compute is scaled by (1 - load).
  double load = 0.0;
  /// Bytes of object storage still available.
  std::uint64_t mem_available = ~0ULL;
};

/// One argument's whereabouts.
struct ArgPlacement {
  GlobalPtr ptr;
  std::uint64_t bytes = 0;  // size of the containing object
  HostAddr home = kUnspecifiedHost;
};

struct PlacementRequest {
  CodeCost code;
  std::vector<ArgPlacement> args;
  /// Bytes the invoker must ship regardless (the activation / inline
  /// argument) — they travel invoker -> executor.
  std::uint64_t inline_bytes = 0;
  HostAddr invoker = kUnspecifiedHost;
};

struct PlacementDecision {
  HostAddr executor = kUnspecifiedHost;
  /// Estimated completion time.
  SimDuration est_cost = 0;
  /// Bytes that must move to the executor.
  std::uint64_t bytes_moved = 0;
  /// Per-candidate scores, for explainability and the benches.
  struct Score {
    HostAddr candidate;
    SimDuration transfer;
    SimDuration compute;
    SimDuration total;
    bool feasible;
  };
  std::vector<Score> scores;
};

class PlacementEngine {
 public:
  /// Score all candidates; fails if none is feasible.
  Result<PlacementDecision> decide(
      const PlacementRequest& req,
      const std::vector<HostProfile>& candidates) const;

 private:
  /// Fabric bandwidth used for transfer estimates.
  static constexpr double kBandwidthBps = 10e9;
  /// Fabric round-trip estimate, charged once per remote object moved.
  static constexpr SimDuration kRtt = 40 * kMicrosecond;
};

}  // namespace objrpc
