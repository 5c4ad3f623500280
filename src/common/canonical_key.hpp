// The canonical event key (DESIGN.md §16): one value, (at, a, b), that
// names an event from the moment sim/event_loop.cpp mints it to the
// moment the event lands in a wheel.  Every record that carries a key
// stores it whole — wheel entries and their sort records, the
// key-merge's cached heads, handoffs, deadline slots and observer
// journal records — and orders it by the one operator< below.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace objrpc {

struct EventKey {
  SimTime at = 0;
  /// lane<<62 | sched_time (the arrival time for a frame delivery).
  std::uint64_t a = 0;
  /// seq<<24 | source: the stamping source's per-source counter.
  std::uint64_t b = 0;

  /// Canonical execution order: ascending (at, a, b).
  friend bool operator<(const EventKey& x, const EventKey& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }
  friend bool operator==(const EventKey&, const EventKey&) = default;
};

}  // namespace objrpc
