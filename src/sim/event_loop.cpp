#include "sim/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/canonical_key.hpp"
#include "common/env.hpp"
#include "common/exec_lane.hpp"

namespace objrpc {

namespace {

SimTime clamp_bound(std::uint64_t b) {
  const auto mx =
      static_cast<std::uint64_t>(std::numeric_limits<SimTime>::max());
  return static_cast<SimTime>(b < mx ? b : mx);
}

}  // namespace

thread_local EventLoop::SchedCtx EventLoop::tls_ctx_;

// ---------------------------------------------------------------- wheel

TimingWheel::TimingWheel(EventLoop* owner, std::uint32_t lane)
    : owner_(owner), lane_(lane) {
  shard_.assert_held();  // construction is shard-local by definition
  entries_.reserve(kChunk);
}

std::uint32_t TimingWheel::alloc_node(SimTime at, std::uint64_t key_a,
                                      std::uint64_t key_b,
                                      std::uint32_t exec_src, Callback fn) {
  if (free_head_ != kNoNode) {
    const std::uint32_t idx = free_head_;
    Entry& n = entries_[idx];
    free_head_ = n.next;
    n.at = at;
    n.key_a = key_a;
    n.key_b = key_b;
    n.exec_src = exec_src;
    fn_at(idx) = std::move(fn);
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  if ((idx & (kChunk - 1)) == 0) {
    fn_chunks_.push_back(std::make_unique<Callback[]>(kChunk));
  }
  entries_.push_back(Entry{at, key_a, key_b, kNoNode, exec_src});
  fn_at(idx) = std::move(fn);
  return idx;
}

void TimingWheel::schedule(SimTime at, std::uint64_t key_a,
                           std::uint64_t key_b, std::uint32_t exec_src,
                           SimTime floor, Callback fn) {
  shard_.assert_held();
  if (at < floor) {
    ++clamped_past_schedules_;
    if (strict_past_schedules_) {
      std::fprintf(stderr,
                   "EventLoop: schedule_at(%lld) is in the past (now=%lld); "
                   "caller violates causality\n",
                   static_cast<long long>(at), static_cast<long long>(floor));
      std::abort();
    }
    at = floor;  // never execute into the past
  }
  if (at < now_) {
    // The scheduler's clock passed the floor check but this wheel has
    // already executed past `at`: only the parallel runner can cause
    // this, by handing a cross-shard frame over with less delay than
    // the lookahead bound it promised.
    ++clamped_past_schedules_;
    if (strict_past_schedules_) {
      std::fprintf(stderr,
                   "EventLoop: lookahead violation: cross-shard event at "
                   "%lld is behind shard clock %lld\n",
                   static_cast<long long>(at), static_cast<long long>(now_));
      std::abort();
    }
    at = now_;
  }
  if (at < min_bound_) min_bound_ = at;
  place(alloc_node(at, key_a, key_b, exec_src, std::move(fn)),
        /*cascading=*/false);
  ++size_;
}

void TimingWheel::place(std::uint32_t idx, bool cascading) {
  const auto at = static_cast<std::uint64_t>(entries_[idx].at);
  if (!cascading && at < tick_) {
    // Cursor rollback: the serial key-merge peeks every wheel's next
    // event, which can park an idle wheel's cursor well past the global
    // execution point; a cross-wheel schedule may then land behind it.
    // Moving the cursor back is safe — nothing between `at` and the old
    // cursor has executed.  Level-0 entries were filed within one lap of
    // the OLD cursor, so re-file them against the new one: left in place,
    // an entry several windows ahead keeps its slot bit set in every
    // window, and next_time would step the cursor there one 1024-tick
    // window at a time (a ~1 ms rollback cost ~1000 window scans).
    // Higher levels need nothing: a slot met early just cascades early.
    // The summary skips empty words; it is re-read after each word, so
    // a word that re-filed entries land in later is still visited.
    tick_ = at;
    sorted_tick_ = kNoTick;
    for (std::uint32_t live = summary_[0]; live != 0;) {
      const auto w = static_cast<std::size_t>(std::countr_zero(live));
      for (std::uint64_t word = bits_[0][w]; word != 0; word &= word - 1) {
        cascade(0, (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
      }
      live = summary_[0] & (~std::uint32_t{0} << (w + 1));
    }
  }
  const std::uint64_t delta = at - tick_;  // at >= tick_ by invariant
  std::size_t level = 0;
  while (level + 1 < kLevels &&
         (delta >> (kWheelBits * (level + 1))) != 0) {
    ++level;
  }
  std::size_t slot;
  if (level == kLevels - 1 && (delta >> (kWheelBits * kLevels)) != 0) {
    // Beyond the wheel horizon (~13 sim-days): park in the farthest
    // top-level bucket; each cascade re-examines it.
    slot = ((tick_ >> (kWheelBits * (kLevels - 1))) + kSlots - 1) &
           (kSlots - 1);
  } else {
    slot = (at >> (kWheelBits * level)) & (kSlots - 1);
  }
  Bucket& b = buckets_[level][slot];
  Entry& n = entries_[idx];
  if (level == 0 && at == tick_ && sorted_tick_ == tick_) {
    // Same-tick child landing in the bucket the cursor is draining
    // (schedule_at(now) from a running callback, including past-time
    // clamps).  Insert in key order so execution order stays a pure
    // function of the event-key set — the property every shard count
    // must agree on.  The walk is short: only the not-yet-executed
    // remainder of one tick.
    std::uint32_t prev = kNoNode;
    std::uint32_t cur = b.head;
    while (cur != kNoNode) {
      const Entry& e = entries_[cur];
      if (key_less(n, e)) break;
      prev = cur;
      cur = e.next;
    }
    n.next = cur;
    if (prev == kNoNode) {
      b.head = idx;
    } else {
      entries_[prev].next = idx;
    }
    if (cur == kNoNode) b.tail = idx;
    set_bit(0, slot);
    return;
  }
  if (cascading) {
    n.next = b.head;
    b.head = idx;
    if (b.tail == kNoNode) b.tail = idx;
  } else {
    n.next = kNoNode;
    if (b.tail == kNoNode) {
      b.head = b.tail = idx;
    } else {
      entries_[b.tail].next = idx;
      b.tail = idx;
    }
  }
  set_bit(level, slot);
}

void TimingWheel::cascade(std::size_t level, std::size_t slot) {
  Bucket& b = buckets_[level][slot];
  std::uint32_t head = b.head;
  if (head == kNoNode) return;
  b.head = b.tail = kNoNode;
  clear_bit(level, slot);
  // Reverse the list, then re-place front-first: every target bucket
  // receives its share as a prepended block in the original order.
  // Arrival order within a bucket no longer matters for execution (the
  // per-tick key sort decides), but keeping it stable keeps the sort's
  // input deterministic.
  std::uint32_t rev = kNoNode;
  while (head != kNoNode) {
    const std::uint32_t nxt = entries_[head].next;
    entries_[head].next = rev;
    rev = head;
    head = nxt;
  }
  while (rev != kNoNode) {
    const std::uint32_t nxt = entries_[rev].next;
    place(rev, /*cascading=*/true);
    rev = nxt;
  }
}

void TimingWheel::sort_bucket(std::size_t slot) {
  Bucket& b = buckets_[0][slot];
  if (b.head == kNoNode || entries_[b.head].next == kNoNode) return;
  // Copy the keys out so the comparator touches no guarded state (and
  // no pointer-chased memory).
  sort_scratch_.clear();
  for (std::uint32_t i = b.head; i != kNoNode; i = entries_[i].next) {
    const Entry& e = entries_[i];
    sort_scratch_.push_back(SortRec{e.at, e.key_a, e.key_b, i});
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.end(),
            key_less<SortRec, SortRec>);
  for (std::size_t i = 0; i + 1 < sort_scratch_.size(); ++i) {
    entries_[sort_scratch_[i].idx].next = sort_scratch_[i + 1].idx;
  }
  entries_[sort_scratch_.back().idx].next = kNoNode;
  b.head = sort_scratch_.front().idx;
  b.tail = sort_scratch_.back().idx;
}

std::uint64_t TimingWheel::first_set_from(std::size_t level,
                                          std::size_t from) const {
  const std::size_t w = from >> 6;
  std::size_t slot;
  if (const std::uint64_t rest =
          bits_[level][w] & (~std::uint64_t{0} << (from & 63));
      rest != 0) {
    slot = (w << 6) + static_cast<std::size_t>(std::countr_zero(rest));
  } else {
    // The words after w, else the wrap: the lowest occupied word of the
    // level.  That may be w itself, whose bits at or above `from` are
    // clear, so whatever it holds lies behind `from`.
    std::uint32_t live = summary_[level] & (~std::uint32_t{0} << (w + 1));
    if (live == 0) live = summary_[level];
    if (live == 0) return kNoDist;
    const auto lw = static_cast<std::size_t>(std::countr_zero(live));
    slot = (lw << 6) +
           static_cast<std::size_t>(std::countr_zero(bits_[level][lw]));
  }
  return (slot + kSlots - from) & (kSlots - 1);
}

SimTime TimingWheel::next_time(SimTime limit) {
  shard_.assert_held();
  if (size_ == 0 || limit < 0 || limit < min_bound_) return kNoEventTime;
  const auto ulimit = static_cast<std::uint64_t>(limit);
  // Earliest event seen in a skipped (future-window) slot: keeps
  // min_bound_ honest when the scan comes up empty.
  std::uint64_t min_skip = ~std::uint64_t{0};
  for (;;) {
    // Scan level 0 from the cursor slot to the end of the window.  Slots
    // behind the cursor belong to the NEXT window (a delta < 1024 can
    // wrap), so they are correctly out of scope until the advance below.
    const std::size_t start = tick_ & (kSlots - 1);
    std::size_t w = start >> 6;
    std::uint64_t word = bits_[0][w] & (~std::uint64_t{0} << (start & 63));
    for (;;) {
      while (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        const std::uint64_t at = (tick_ & ~std::uint64_t{kSlots - 1}) + slot;
        if (at > ulimit) {
          // Everything still pending is at `at` or later, except events
          // in slots we skipped below.
          min_bound_ = clamp_bound(std::min(ulimit + 1, min_skip));
          return kNoEventTime;
        }
        // A slot can hold events of a later window after a cursor
        // rollback; they fire only when the cursor wraps around to
        // their window, so check the bucket's earliest real time.
        // Once the bucket is sorted for this tick its head holds that
        // minimum (sorted by `at` first, and every later insert goes
        // through place()'s ordered fast path), so only the FIRST
        // touch pays the walk: next_time runs once per pop, and a
        // full re-scan here would turn a k-event tick into O(k^2).
        std::uint64_t mn;
        if (sorted_tick_ == at) {
          mn = static_cast<std::uint64_t>(
              entries_[buckets_[0][slot].head].at);
        } else {
          // One walk doubles as a sortedness probe: schedule order
          // usually IS key order (parents execute in key order and
          // append their children in turn), and a bucket that arrives
          // sorted skips sort_bucket wholesale — the difference
          // between paying O(k log k) per tick and paying one
          // comparison per event.
          mn = ~std::uint64_t{0};
          bool in_order = true;
          const Entry* prev = nullptr;
          for (std::uint32_t i = buckets_[0][slot].head; i != kNoNode;
               i = entries_[i].next) {
            const Entry& e = entries_[i];
            mn = std::min(mn, static_cast<std::uint64_t>(e.at));
            if (prev != nullptr && key_less(e, *prev)) in_order = false;
            prev = &e;
          }
          if (in_order && mn == at) sorted_tick_ = at;
        }
        if (mn == at) {
          if (sorted_tick_ != at) {
            sort_bucket(slot);
            sorted_tick_ = at;
          }
          tick_ = at;
          min_bound_ = static_cast<SimTime>(at);
          return static_cast<SimTime>(at);
        }
        min_skip = std::min(min_skip, mn);
        word &= word - 1;  // future-window slot: keep scanning
      }
      // Jump to the next occupied word of the window, if any.
      const std::uint32_t later =
          summary_[0] & (~std::uint32_t{0} << (w + 1));
      if (later == 0) break;
      w = static_cast<std::size_t>(std::countr_zero(later));
      word = bits_[0][w];
    }
    // Window exhausted: jump to the next tick where anything can
    // happen — the earliest of (a) the cursor reaching an occupied
    // level-0 slot in a later window, (b) a cascade boundary whose
    // higher-level bucket is occupied.  Boundaries in between are
    // no-ops by construction (their buckets are empty), so skipping
    // them wholesale is exact, and a far-future timer costs O(levels)
    // bitmap scans instead of one iteration per empty window.
    const std::uint64_t next_window = (tick_ | (kSlots - 1)) + 1;
    std::uint64_t target = ~std::uint64_t{0};
    const std::uint64_t d0 = first_set_from(0, 0);
    if (d0 != kNoDist) target = next_window + d0;
    for (std::size_t lv = 1; lv < kLevels; ++lv) {
      std::uint64_t c0 = next_window >> (kWheelBits * lv);
      if ((c0 << (kWheelBits * lv)) != next_window) ++c0;
      const std::uint64_t d =
          first_set_from(lv, static_cast<std::size_t>(c0 & (kSlots - 1)));
      if (d == kNoDist) continue;
      target = std::min(target, (c0 + d) << (kWheelBits * lv));
    }
    if (target > ulimit) {
      min_bound_ = clamp_bound(std::min(ulimit + 1, min_skip));
      return kNoEventTime;
    }
    tick_ = target;
    ++window_advances_;
    for (std::size_t lv = kLevels - 1; lv >= 1; --lv) {
      const std::uint64_t mask =
          (std::uint64_t{1} << (kWheelBits * lv)) - 1;
      if ((tick_ & mask) == 0) {
        cascade(lv, (tick_ >> (kWheelBits * lv)) & (kSlots - 1));
      }
    }
  }
}

void TimingWheel::head_key(std::uint64_t& key_a, std::uint64_t& key_b) {
  shard_.assert_held();
  const Entry& e = entries_[buckets_[0][tick_ & (kSlots - 1)].head];
  key_a = e.key_a;
  key_b = e.key_b;
}

void TimingWheel::pop_run_raw() {
  shard_.assert_held();
  const std::size_t slot = tick_ & (kSlots - 1);
  Bucket& b = buckets_[0][slot];
  const std::uint32_t idx = b.head;
  b.head = entries_[idx].next;
  if (b.head == kNoNode) {
    b.tail = kNoNode;
    clear_bit(0, slot);
  } else {
    // Hide the next node's cache miss behind this callback's execution.
    __builtin_prefetch(&entries_[b.head]);
    __builtin_prefetch(&fn_at(b.head));
  }
  --size_;
  now_ = static_cast<SimTime>(tick_);
  ++executed_;
  // Point the scheduling context at this event: schedules from inside
  // the callback inherit the wheel, the source identity (for seq
  // stamping), and the lane (for SHARD_LANED allocators).
  const Entry& e = entries_[idx];
  EventLoop::tls_ctx_ =
      EventLoop::SchedCtx{owner_, this, e.exec_src, e.key_a, e.key_b};
  ExecLane::idx = lane_;
  // Invoke in place: the chunked storage never moves, the node is the
  // callback's sole owner, and the node is only recycled AFTER the call
  // returns, so a callback that schedules new events (growing the entry
  // array) cannot invalidate or reuse its own storage.
  Callback& fn = fn_at(idx);
  fn();
  fn.reset();
  entries_[idx].next = free_head_;
  free_head_ = idx;
}

void TimingWheel::pop_run() {
  const EventLoop::SchedCtx saved = EventLoop::tls_ctx_;
  const std::uint32_t saved_lane = ExecLane::idx;
  pop_run_raw();
  ExecLane::idx = saved_lane;
  EventLoop::tls_ctx_ = saved;
}

void TimingWheel::drain_current_tick_raw() {
  shard_.assert_held();
  while (sorted_tick_ == tick_) {
    const std::uint32_t h = buckets_[0][tick_ & (kSlots - 1)].head;
    if (h == kNoNode ||
        static_cast<std::uint64_t>(entries_[h].at) != tick_) {
      break;
    }
    pop_run_raw();
  }
}

bool TimingWheel::run_until(SimTime limit) {
  const EventLoop::SchedCtx saved = EventLoop::tls_ctx_;
  const std::uint32_t saved_lane = ExecLane::idx;
  bool ran = false;
  while (next_time(limit) != kNoEventTime) {
    pop_run_raw();
    drain_current_tick_raw();
    ran = true;
  }
  ExecLane::idx = saved_lane;
  EventLoop::tls_ctx_ = saved;
  return ran;
}

void TimingWheel::extract_all(std::vector<Extracted>& out) {
  shard_.assert_held();
  for (std::size_t lv = 0; lv < kLevels; ++lv) {
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      for (std::uint32_t i = buckets_[lv][slot].head; i != kNoNode;
           i = entries_[i].next) {
        const Entry& e = entries_[i];
        out.push_back(
            Extracted{e.at, e.key_a, e.key_b, e.exec_src,
                      std::move(fn_at(i))});
      }
      buckets_[lv][slot] = Bucket{};
    }
  }
  for (auto& words : bits_) {
    for (auto& word : words) word = 0;
  }
  for (auto& live : summary_) live = 0;
  entries_.clear();
  fn_chunks_.clear();
  free_head_ = kNoNode;
  size_ = 0;
  sorted_tick_ = kNoTick;
  min_bound_ = 0;
}

// --------------------------------------------------------------- facade

EventLoop::EventLoop() : control_(this, /*lane=*/1) {
  wheels_.push_back(std::make_unique<TimingWheel>(this, /*lane=*/0));
  set_strict_past_schedules(env_truthy("CHECK_INVARIANTS"));
}

EventLoop::~EventLoop() = default;

SimTime EventLoop::now() const {
  const SchedCtx& c = tls_ctx_;
  if (c.owner == this && c.wheel != nullptr) return c.wheel->now();
  return global_now_;
}

void EventLoop::set_strict_past_schedules(bool strict) {
  strict_past_schedules_ = strict;
  control_.set_strict_past_schedules(strict);
  for (auto& w : wheels_) w->set_strict_past_schedules(strict);
}

void EventLoop::schedule_at(SimTime at, Callback fn) {
  SchedCtx& c = tls_ctx_;
  if (c.owner == this && c.wheel != &control_) {
    // Node context: the event is this node's own timer — it stays on
    // the node's wheel, stamped from the node's seq counter.
    TimingWheel* w = c.wheel;
    const SimTime sched_now = w->now();
    w->schedule(at,
                kShardLaneBit | static_cast<std::uint64_t>(sched_now),
                stamp(c.src), c.src, sched_now, std::move(fn));
    return;
  }
  // External or control-lane context: control wheel, lane-0 key (runs
  // before any shard event at the same tick, in every mode).
  control_.set_now(global_now_);
  const SimTime sched_now = control_.now();
  control_.schedule(at, static_cast<std::uint64_t>(sched_now),
                    stamp(kExternalSource), kExternalSource, sched_now,
                    std::move(fn));
}

void EventLoop::schedule_routed(std::uint32_t dst, SimTime at,
                                SimTime key_time, Callback fn) {
  SchedCtx& c = tls_ctx_;
  std::uint32_t stamp_src = kExternalSource;
  SimTime sched_now = global_now_;
  if (c.owner == this && c.wheel != nullptr) {
    sched_now = c.wheel->now();
    if (c.wheel != &control_) stamp_src = c.src;
  }
  wheel_of_source(dst)->schedule(
      at, kShardLaneBit | static_cast<std::uint64_t>(key_time),
      stamp(stamp_src), dst, sched_now, std::move(fn));
}

void EventLoop::stamp_routed(SimTime key_time, std::uint64_t& key_a,
                             std::uint64_t& key_b) {
  SchedCtx& c = tls_ctx_;
  std::uint32_t stamp_src = kExternalSource;
  if (c.owner == this && c.wheel != nullptr && c.wheel != &control_) {
    stamp_src = c.src;
  }
  key_a = kShardLaneBit | static_cast<std::uint64_t>(key_time);
  key_b = stamp(stamp_src);
}

EventLoop::Key EventLoop::reserve_key() {
  SchedCtx& c = tls_ctx_;
  if (c.owner == this && c.wheel != &control_) {
    return Key{kShardLaneBit | static_cast<std::uint64_t>(c.wheel->now()),
               stamp(c.src)};
  }
  control_.set_now(global_now_);
  return Key{static_cast<std::uint64_t>(control_.now()),
             stamp(kExternalSource)};
}

void EventLoop::schedule_keyed(SimTime at, Key key, Callback fn) {
  SchedCtx& c = tls_ctx_;
  if (c.owner == this && c.wheel != &control_) {
    TimingWheel* w = c.wheel;
    w->schedule(at, key.a, key.b, c.src, w->now(), std::move(fn));
    return;
  }
  control_.set_now(global_now_);
  control_.schedule(at, key.a, key.b, kExternalSource, control_.now(),
                    std::move(fn));
}

void EventLoop::schedule_stamped(std::uint32_t dst, SimTime at,
                                 std::uint64_t key_a, std::uint64_t key_b,
                                 Callback fn) {
  // floor == at: the "in the past" clamp can never fire here; an `at`
  // behind dst's wheel clock falls through to the lookahead-violation
  // check inside TimingWheel::schedule.
  wheel_of_source(dst)->schedule(at, key_a, key_b, dst, at, std::move(fn));
}

void EventLoop::schedule_on_source(std::uint32_t src, SimTime at,
                                   Callback fn) {
  const SimTime sched_now = now();
  wheel_of_source(src)->schedule(
      at, kShardLaneBit | static_cast<std::uint64_t>(sched_now), stamp(src),
      src, sched_now, std::move(fn));
}

void EventLoop::register_source(std::uint32_t src) {
  if (src >= source_seq_.size()) {
    source_seq_.resize(src + 1, 0);
    wheel_of_.resize(src + 1, 0);
  }
}

void EventLoop::configure_shards(std::uint32_t shards,
                                 const std::vector<std::uint32_t>& shard_of) {
  if (shards == 0) shards = 1;
  // Re-home pending shard events: keys travel with them, so a
  // partition change never reorders anything.
  std::vector<TimingWheel::Extracted> moved;
  for (auto& w : wheels_) w->extract_all(moved);
  wheels_.clear();
  for (std::uint32_t i = 0; i < shards; ++i) {
    auto w = std::make_unique<TimingWheel>(this, i);
    w->set_strict_past_schedules(strict_past_schedules_);
    w->set_now(global_now_);
    wheels_.push_back(std::move(w));
  }
  control_.set_lane(shards);
  wheel_of_.assign(source_seq_.size(), 0);
  for (std::size_t src = 0; src < wheel_of_.size(); ++src) {
    if (src < shard_of.size() && shard_of[src] < shards) {
      wheel_of_[src] = shard_of[src];
    }
  }
  for (auto& e : moved) {
    TimingWheel* w = e.exec_src == kExternalSource
                         ? wheels_[0].get()
                         : wheel_of_source(e.exec_src);
    w->schedule(e.at, e.key_a, e.key_b, e.exec_src, /*floor=*/e.at,
                std::move(e.fn));
  }
}

bool EventLoop::run_shards(SimTime limit) {
  if (driver_ != nullptr) return driver_->run_window(limit);
  if (wheels_.size() > 1) return merge_run(limit);
  TimingWheel& w = *wheels_[0];
  const bool ran = w.run_until(limit);
  if (w.now() > global_now_) global_now_ = w.now();
  return ran;
}

void EventLoop::read_head(TimingWheel& w, SimTime limit, Head& h) {
  h.pending = w.pending();
  h.at = w.next_time(limit);
  if (h.at != kNoEventTime) w.head_key(h.key_a, h.key_b);
}

bool EventLoop::merge_run(SimTime limit) {
  // Serialized-canonical execution across K wheels: repeatedly run the
  // event with the globally smallest (at, key_a, key_b).  This is the
  // order the key design defines for EVERY mode, so observers (taps,
  // the invariant checker, the tracer) see exactly the 1-shard stream.
  // A head can only move on the wheel that just popped, or on one a
  // schedule landed in (its pending count moved — a cross-wheel frame,
  // possibly below the cached head, and unbounded by any lookahead on
  // the serial kill-switch path); every other head is reused.
  constexpr std::size_t kStale = ~std::size_t{0};
  const std::size_t k = wheels_.size();
  heads_.resize(k);
  for (Head& h : heads_) h.pending = kStale;
  const SchedCtx saved = tls_ctx_;
  const std::uint32_t saved_lane = ExecLane::idx;
  bool ran = false;
  for (;;) {
    std::size_t best = k;
    for (std::size_t i = 0; i < k; ++i) {
      Head& h = heads_[i];
      if (h.pending != wheels_[i]->pending()) read_head(*wheels_[i], limit, h);
      if (h.at != kNoEventTime && (best == k || key_less(h, heads_[best]))) {
        best = i;
      }
    }
    if (best == k) break;
    const SimTime at = heads_[best].at;
    wheels_[best]->pop_run_raw();
    heads_[best].pending = kStale;
    if (at > global_now_) global_now_ = at;
    ran = true;
  }
  ExecLane::idx = saved_lane;
  tls_ctx_ = saved;
  return ran;
}

EventLoop::ObserverReplayScope::ObserverReplayScope(EventLoop& loop)
    : loop_(loop), saved_ctx_(tls_ctx_), saved_lane_(ExecLane::idx) {
  tls_ctx_ = SchedCtx{&loop, &loop.control_, kExternalSource, 0, 0};
  ExecLane::idx = loop.control_.lane();
}

EventLoop::ObserverReplayScope::~ObserverReplayScope() {
  ExecLane::idx = saved_lane_;
  tls_ctx_ = saved_ctx_;
}

void EventLoop::ObserverReplayScope::advance(SimTime at) {
  // set_now never moves a clock backward, so a record time below the
  // control wheel's clock (possible when control events already ran
  // inside the window) degrades gracefully: now() stays put.
  loop_.control_.set_now(at);
}

void EventLoop::run_core(SimTime deadline) {
  for (;;) {
    const SimTime tc = control_.next_time(deadline);
    // Shard events strictly before the next control time: control
    // events (lane 0) precede shard events (lane 1) at the same tick.
    // A window may end short of tc (the driver's horizon) and its
    // barrier may schedule on the control lane, so tc is read again
    // after every window that ran anything.
    if (run_shards(tc == kNoEventTime ? deadline : tc - 1)) continue;
    if (tc == kNoEventTime) return;
    // Nothing on the control wheel lies below tc, so running it to tc
    // drains exactly the events at tc (children at tc included — they
    // sort after their parents by seq).
    if (tc > global_now_) global_now_ = tc;
    control_.run_until(tc);
  }
}

void EventLoop::settle_clocks(SimTime t) {
  if (t > global_now_) global_now_ = t;
  control_.set_now(global_now_);
  for (auto& w : wheels_) w->set_now(global_now_);
}

bool EventLoop::step() {
  constexpr SimTime kLim = std::numeric_limits<SimTime>::max();
  TimingWheel* best = nullptr;
  Head best_head;
  auto consider = [&](TimingWheel& w) {
    Head h;
    read_head(w, kLim, h);
    if (h.at != kNoEventTime && (best == nullptr || key_less(h, best_head))) {
      best = &w;
      best_head = h;
    }
  };
  consider(control_);
  for (auto& w : wheels_) consider(*w);
  if (best == nullptr) return false;
  best->pop_run();
  if (best_head.at > global_now_) global_now_ = best_head.at;
  return true;
}

void EventLoop::run() {
  run_core(std::numeric_limits<SimTime>::max());
  settle_clocks(global_now_);
  if (drain_hook_ && pending() == 0) drain_hook_();
}

void EventLoop::run_until(SimTime deadline) {
  run_core(deadline);
  settle_clocks(deadline);
  if (pending() == 0 && drain_hook_) drain_hook_();
}

}  // namespace objrpc
