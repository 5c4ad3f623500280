#include "core/placement.hpp"

#include <algorithm>

namespace objrpc {

Result<PlacementDecision> PlacementEngine::decide(
    const PlacementRequest& req,
    const std::vector<HostProfile>& candidates) const {
  if (candidates.empty()) {
    return Error{Errc::invalid_argument, "no candidate executors"};
  }
  PlacementDecision decision;
  const double bytes_per_ns = kBandwidthBps / 8.0 / 1e9;

  std::uint64_t touched_bytes = 0;
  for (const auto& a : req.args) touched_bytes += a.bytes;
  touched_bytes += req.inline_bytes;

  for (const auto& cand : candidates) {
    PlacementDecision::Score score;
    score.candidate = cand.addr;

    // Bytes that must move to this candidate.
    std::uint64_t move_bytes = 0;
    std::uint64_t remote_objects = 0;
    for (const auto& a : req.args) {
      if (a.home != cand.addr) {
        move_bytes += a.bytes;
        ++remote_objects;
      }
    }
    if (req.invoker != cand.addr) {
      move_bytes += req.inline_bytes;
      remote_objects += req.inline_bytes > 0 ? 1 : 0;
    }

    score.feasible = move_bytes <= cand.mem_available;
    score.transfer = static_cast<SimDuration>(
                         static_cast<double>(move_bytes) / bytes_per_ns) +
                     static_cast<SimDuration>(remote_objects) * kRtt;
    const double ops = req.code.fixed_ops +
                       req.code.ops_per_byte *
                           static_cast<double>(touched_bytes);
    const double effective_rate =
        cand.compute_ops_per_ns * std::max(1.0 - cand.load, 0.01);
    score.compute = static_cast<SimDuration>(ops / effective_rate);
    score.total = score.transfer + score.compute;
    decision.scores.push_back(score);

    if (score.feasible && (decision.executor == kUnspecifiedHost ||
                           score.total < decision.est_cost)) {
      decision.executor = cand.addr;
      decision.est_cost = score.total;
      decision.bytes_moved = move_bytes;
    }
  }
  if (decision.executor == kUnspecifiedHost) {
    return Error{Errc::capacity_exceeded, "no feasible executor"};
  }
  return decision;
}

}  // namespace objrpc
