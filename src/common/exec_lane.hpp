// Execution-lane identity for SHARD_LANED state (DESIGN.md §16).
//
// The sharded event loop (sim/shard) replicates per-frame state —
// traffic counters, digest sums, cross-shard handoffs, payload free
// lists, observer journal lanes — into one lane per shard plus a
// control lane, so the hot path never synchronizes on it.  (Ids are
// not laned: frame, trace and span ids are minted per source node, see
// obs/trace.hpp.)  Everything below src/sim (the pool, the journal)
// must know which lane is executing without depending on the
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

}  // namespace objrpc
