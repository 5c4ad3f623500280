// PerLane<T>: one cache-line-padded T per execution lane (DESIGN.md §16).
//
// SHARD_LANED state — the Network's lane block (traffic counters,
// digest sums, cross-shard handoffs), payload free lists, observer
// journal lanes — is replicated once per execution lane (shards plus
// the control lane; Network::size_lanes sets the count) so the hot path
// never synchronizes: local() is the executing lane's slot, and during
// a concurrent epoch only the thread running that lane touches it.
// Each slot is alignas(64), so two lanes' state never shares a cache
// line.  Indexing and iteration read across lanes: coordinator-only, at
// barriers or quiesce, workers parked.
#pragma once

#include <cstdint>
#include <vector>

#include "common/exec_lane.hpp"

namespace objrpc {

template <typename T>
class PerLane {
  struct alignas(64) Slot {
    T value{};
  };
  using Slots = std::vector<Slot>;

  template <typename SlotIt>
  class Iter {
   public:
    explicit Iter(SlotIt it) : it_(it) {}
    auto& operator*() const { return it_->value; }
    Iter& operator++() {
      ++it_;
      return *this;
    }
    bool operator!=(const Iter& o) const { return it_ != o.it_; }

   private:
    SlotIt it_;
  };

 public:
  /// Resize to `n` lanes.  Existing lanes keep their contents; new
  /// ones start value-initialized.  Setup-time only, before any worker
  /// thread exists.
  void configure(std::uint32_t n) { slots_.resize(n); }

  /// The executing lane's slot.  A lane past the configured count is a
  /// bug (a bounds-checked build aborts on it).
  T& local() { return slots_[ExecLane::idx].value; }

  T& operator[](std::uint32_t i) { return slots_[i].value; }
  const T& operator[](std::uint32_t i) const { return slots_[i].value; }

  auto begin() { return Iter<typename Slots::iterator>(slots_.begin()); }
  auto end() { return Iter<typename Slots::iterator>(slots_.end()); }
  auto begin() const {
    return Iter<typename Slots::const_iterator>(slots_.begin());
  }
  auto end() const {
    return Iter<typename Slots::const_iterator>(slots_.end());
  }

 private:
  Slots slots_ = Slots(1);
};

}  // namespace objrpc
