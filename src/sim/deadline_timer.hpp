// One node's request deadlines, keyed by the caller's own id, on one
// wheel event (DESIGN.md §7).  arm() reserves the key schedule_after
// would have stamped; the event sits at the earliest live deadline under
// that deadline's own key, so a live timeout expires exactly where its
// own event would have, and a disarmed one costs no event.  An arm made
// outside the owner's context (a test driver, the control lane, another
// node) keeps its own event: the timer may only write the owner's wheel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/canonical_key.hpp"
#include "common/flat_table.hpp"
#include "sim/event_loop.hpp"

namespace objrpc {

template <typename Id>
class DeadlineTimer {
 public:
  /// Runs only for a live deadline, disarmed first (it may re-arm).
  using ExpireFn = std::function<void(Id)>;

  DeadlineTimer(EventLoop& loop, std::uint32_t owner, ExpireFn on_expire)
      : loop_(loop), owner_(owner), on_expire_(std::move(on_expire)) {}
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  void arm(const Id& id, SimDuration after) {
    const SimTime at = loop_.now() + after;
    const EventLoop::Key key = loop_.reserve_key();
    const Slot slot{at, key.a, key.b};
    live_.insert_or_assign(id, slot);
    if (loop_.current_source() != owner_) {
      loop_.schedule_keyed(at, key,
                           [this, id, slot] { expire_if_live(id, slot); });
      return;
    }
    // A shorter timeout than an earlier arm's lands before the back.
    const Deadline d{slot, id};
    deadlines_.insert(std::upper_bound(deadlines_.begin(), deadlines_.end(),
                                       d, key_less<Deadline, Deadline>),
                      d);
    arm_event();
  }

  void disarm(const Id& id) { live_.erase(id); }
  bool armed(const Id& id) const { return live_.contains(id); }
  std::size_t armed_count() const { return live_.size(); }

  /// Wheel events outstanding for the owner's own arms: one in steady
  /// state, however many deadlines are armed.
  std::size_t events_pending() const { return timer_slots_.size(); }

 private:
  /// Where an event runs: its time and (reserved) key, as key_less reads.
  struct Slot {
    SimTime at;
    std::uint64_t key_a;
    std::uint64_t key_b;
  };
  struct Deadline : Slot {
    Id id;
  };
  /// key_b (seq, source) names one reservation: a slot's identity.
  bool live(const Id& id, const Slot& slot) const {
    const Slot* s = live_.find(id);
    return s != nullptr && s->key_b == slot.key_b;
  }
  void expire_if_live(const Id& id, const Slot& slot) {
    if (!live(id, slot)) return;
    live_.erase(id);
    on_expire_(id);
  }

  /// Drop dead heads; make sure an event fires no later than the
  /// earliest live deadline, under that deadline's own key.
  void arm_event() {
    while (!deadlines_.empty() &&
           !live(deadlines_.front().id, deadlines_.front())) {
      deadlines_.pop_front();
    }
    if (deadlines_.empty()) return;
    const Slot head = deadlines_.front();
    for (const Slot& s : timer_slots_) {
      if (!key_less(head, s)) return;  // fires at the head's slot or before
    }
    timer_slots_.push_back(head);
    loop_.schedule_keyed(head.at, {head.key_a, head.key_b},
                         [this, head] { on_event(head); });
  }

  void on_event(const Slot& slot) {
    timer_slots_.erase(
        std::find_if(timer_slots_.begin(), timer_slots_.end(),
                     [&](const Slot& s) { return s.key_b == slot.key_b; }));
    // No live deadline precedes the slot and keys are unique, so the
    // head is the slot's own deadline or a later one (the slot's died,
    // or a shorter arm superseded this event).
    if (!deadlines_.empty() && !key_less(slot, deadlines_.front())) {
      const Deadline d = deadlines_.front();
      deadlines_.pop_front();
      expire_if_live(d.id, d);
    }
    arm_event();
  }

  EventLoop& loop_;
  std::uint32_t owner_;
  ExpireFn on_expire_;
  FlatHashMap<Id, Slot> live_;  ///< each armed id's live deadline
  /// The owner's own arms, live or dead, in (at, key) order.
  std::deque<Deadline> deadlines_;
  /// Slots of the outstanding timer events, usually one.  An arm ahead
  /// of the earliest adds another; the later one fires as a no-op
  /// unless its slot is the head's again.
  std::vector<Slot> timer_slots_;
};

}  // namespace objrpc
