// Execution-lane identity for SHARD_LANED state (DESIGN.md §16).
//
// The sharded event loop (sim/shard) replicates per-frame allocators —
// frame ids, trace/span ids, traffic counters, payload free lists —
// into one lane per shard plus a control lane, so the hot path never
// synchronizes on them.  Everything below src/sim (the pool, the
// tracer) must know which lane is executing without depending on the
// simulator; this thread-local index is that channel.  The event loop
// sets it around every callback (shard wheels use their shard index,
// the control/coordinator lane uses the highest index); single-threaded
// code never touches it and reads lane 0.
#pragma once

#include <cstdint>

namespace objrpc {

struct ExecLane {
  /// Lane of the code currently executing on this thread.  Written only
  /// by the event-loop dispatch (sim/event_loop.cpp, sim/shard.cpp).
  static inline thread_local std::uint32_t idx = 0;
};

/// Current lane clamped to a component's configured lane count (lets a
/// component with fewer lanes than the fabric still index safely).
inline std::uint32_t exec_lane_below(std::uint32_t lanes) {
  const std::uint32_t i = ExecLane::idx;
  return i < lanes ? i : lanes - 1;
}

}  // namespace objrpc
