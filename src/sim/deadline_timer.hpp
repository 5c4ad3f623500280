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
    const EventKey key = loop_.reserve_key(loop_.now() + after);
    live_.insert_or_assign(id, key);
    if (loop_.current_source() != owner_) {
      loop_.schedule_keyed(key, [this, id, key] { expire_if_live(id, key); });
      return;
    }
    // A shorter timeout than an earlier arm's lands before the back.
    deadlines_.insert(
        std::upper_bound(deadlines_.begin(), deadlines_.end(), key,
                         [](const EventKey& k, const Deadline& d) {
                           return k < d.key;
                         }),
        Deadline{key, id});
    arm_event();
  }

  void disarm(const Id& id) { live_.erase(id); }
  bool armed(const Id& id) const { return live_.contains(id); }
  std::size_t armed_count() const { return live_.size(); }

  /// Wheel events outstanding for the owner's own arms: one in steady
  /// state, however many deadlines are armed.
  std::size_t events_pending() const { return timer_keys_.size(); }

 private:
  /// An armed deadline: where its event runs (its reserved key), and
  /// whose it is.
  struct Deadline {
    EventKey key;
    Id id;
  };
  /// A reserved key names one reservation: an arm's identity.
  bool live(const Id& id, const EventKey& key) const {
    const EventKey* k = live_.find(id);
    return k != nullptr && *k == key;
  }
  void expire_if_live(const Id& id, const EventKey& key) {
    if (!live(id, key)) return;
    live_.erase(id);
    on_expire_(id);
  }

  /// Drop dead heads; make sure an event fires no later than the
  /// earliest live deadline, under that deadline's own key.
  void arm_event() {
    while (!deadlines_.empty() &&
           !live(deadlines_.front().id, deadlines_.front().key)) {
      deadlines_.pop_front();
    }
    if (deadlines_.empty()) return;
    const EventKey head = deadlines_.front().key;
    for (const EventKey& k : timer_keys_) {
      if (!(head < k)) return;  // fires at the head's key or before
    }
    timer_keys_.push_back(head);
    loop_.schedule_keyed(head, [this, head] { on_event(head); });
  }

  void on_event(const EventKey& key) {
    timer_keys_.erase(
        std::find(timer_keys_.begin(), timer_keys_.end(), key));
    // No live deadline precedes the key and keys are unique, so the
    // head is the key's own deadline or a later one (the key's died, or
    // a shorter arm superseded this event).
    if (!deadlines_.empty() && !(key < deadlines_.front().key)) {
      const Deadline d = deadlines_.front();
      deadlines_.pop_front();
      expire_if_live(d.id, d.key);
    }
    arm_event();
  }

  EventLoop& loop_;
  std::uint32_t owner_;
  ExpireFn on_expire_;
  FlatHashMap<Id, EventKey> live_;  ///< each armed id's live deadline
  /// The owner's own arms, live or dead, in key order.
  std::deque<Deadline> deadlines_;
  /// Keys of the outstanding timer events, usually one.  An arm ahead
  /// of the earliest adds another; the later one fires as a no-op
  /// unless its key is the head's again.
  std::vector<EventKey> timer_keys_;
};

}  // namespace objrpc
