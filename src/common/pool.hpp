// Free-list pools for the simulator's per-event and per-frame buffers.
//
// The hot path allocates two kinds of short-lived memory: event nodes
// (one per scheduled callback) and frame payload buffers (one Bytes per
// emission/copy).  Both have perfectly cyclic lifetimes inside the
// event loop, so a free list recycles them with zero steady-state heap
// traffic.  Pool reuse is invisible to behaviour: recycled buffers are
// fully overwritten before anyone reads them, so determinism digests
// are unaffected.
//
// Shard safety (DESIGN.md §16): the sharded event loop runs acquire()
// and release() concurrently from every shard's worker thread.  The
// pool is SHARD_LANED — one free list per execution lane, indexed by
// ExecLane::idx — so the steady state never synchronizes.  A buffer
// whose frame crosses shards is acquired on the sender's lane and
// released on the receiver's: that release is the EXPLICIT cross-shard
// return, and it deposits the buffer into the RELEASING lane's free
// list.  Ownership migrates with the frame; no lock, no CAS, and the
// worst case (all traffic one-directional) only redistributes capacity
// between lanes, never leaks it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/per_lane.hpp"

namespace objrpc {

/// Recycles `Bytes` buffers, retaining their capacity across uses.
/// acquire()/copy_of() prefer a recycled buffer; release() returns one.
/// Buffers that leave the simulator (handed to protocol code that keeps
/// them) are simply never released — the pool only ever helps.
class BufferPool {
 public:
  /// Retain at most this many idle buffers PER LANE (beyond that,
  /// release() lets the buffer free normally so a burst can't pin
  /// memory forever).
  explicit BufferPool(std::size_t max_retained = 4096)
      : max_retained_(max_retained) {}

  /// Replicate the free list across `n` execution lanes (one per shard
  /// plus the control lane).  Set by Network::size_lanes before any
  /// worker thread exists; buffers already retained keep their lanes.
  /// A standalone pool has one lane.
  void configure_lanes(std::uint32_t n) { lanes_.configure(n); }

  /// A buffer of exactly `size` bytes (contents unspecified).
  /// MAY_ALLOC: pool refill — allocates fresh only when the lane's free
  /// list is empty; steady-state frame traffic recycles.
  HOT_PATH MAY_ALLOC Bytes acquire(std::size_t size) {
    Lane& lane = lanes_.local();
    if (lane.free.empty()) {
      ++lane.stats.fresh;
      return Bytes(size);
    }
    Bytes b = std::move(lane.free.back());
    lane.free.pop_back();
    b.resize(size);
    ++lane.stats.reused;
    return b;
  }

  /// A pooled copy of `src` (the flood path's per-port payload copy).
  HOT_PATH MAY_ALLOC Bytes copy_of(ByteSpan src) {
    Bytes b = acquire(src.size());
    if (!src.empty()) std::copy(src.begin(), src.end(), b.begin());
    return b;
  }

  /// Return a dead buffer to the CURRENT lane's free list.  When the
  /// buffer was acquired on another shard this is the explicit
  /// cross-shard return: the capacity migrates to the releasing lane.
  HOT_PATH void release(Bytes&& b) {
    if (b.capacity() == 0) return;  // nothing worth retaining
    Lane& lane = lanes_.local();
    if (lane.free.size() >= max_retained_) {
      ++lane.stats.dropped;
      Bytes dying = std::move(b);  // frees here
      return;
    }
    ++lane.stats.released;
    lane.free.push_back(std::move(b));
  }

  /// Idle buffers across all lanes (meaningful at quiesce/barriers).
  std::size_t idle() const {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.free.size();
    return n;
  }

  struct Stats {
    std::uint64_t fresh = 0;    ///< acquires served by the heap
    std::uint64_t reused = 0;   ///< acquires served by a free list
    std::uint64_t released = 0; ///< buffers returned and retained
    std::uint64_t dropped = 0;  ///< returns discarded (list full)
  };
  /// Lane-merged counters; read at quiesce or barriers (the metrics
  /// layer and tests), never from a racing hot path.
  Stats stats() const {
    Stats s;
    for (const Lane& lane : lanes_) {
      s.fresh += lane.stats.fresh;
      s.reused += lane.stats.reused;
      s.released += lane.stats.released;
      s.dropped += lane.stats.dropped;
    }
    return s;
  }

 private:
  struct Lane {
    std::vector<Bytes> free;
    Stats stats;
  };

  std::size_t max_retained_;
  /// SHARD_LANED: the current thread touches only its own lane;
  /// configure_lanes sizes it before threads exist.
  SHARD_LANED PerLane<Lane> lanes_;
};

}  // namespace objrpc
