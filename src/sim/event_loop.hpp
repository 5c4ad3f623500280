// Discrete-event simulation core.
//
// The paper's evaluation ran on Mininet, which emulates a network in real
// time (and, as the authors note, "emulation affected timings").  We
// substitute a deterministic discrete-event loop: virtual time advances
// only through scheduled events, so identical seeds produce identical
// traces and the figure benches are exactly reproducible (DESIGN.md §7).
//
// Hot-path layout (DESIGN.md §14): each ready queue is a hierarchical
// timing wheel (calendar queue) over pool-allocated event nodes.  Five
// levels of 1024 buckets cover deltas up to 2^50 ns; a level-0 bucket
// spans exactly one tick.  Callbacks are SmallFn (common/small_fn.hpp),
// so the fabric's transmit/pipeline closures are stored inline:
// steady-state scheduling performs no heap allocation, and popping
// invokes the callback in place (the old std::priority_queue required a
// const_cast to move out of top(), mutating an element the container
// still owned).
//
// Sharded execution (DESIGN.md §16): the loop is a facade over one
// CONTROL wheel (external and coordinator-scheduled events: injection,
// crash/revive, test drivers) plus K SHARD wheels, partitioned over
// event sources (nodes) by sim/shard's topology planners.  Every event
// carries one canonical EventKey (common/canonical_key.hpp)
//
//     (at, a, b)
//     a = lane<<62 | sched_time      (lane 0 = control, 1 = shard;
//                                     a frame delivery's sched_time is
//                                     the frame's arrival)
//     b = seq<<24  | source          (per-source monotone seq)
//
// minted only here, in one of three kinds: the CONTEXT key (what
// schedule_at stamps from the running node or the control lane), the
// ROUTED key (a delivery stamped by its sender, executing as its
// receiver) and the SOURCE key (schedule_on_source, stamped by the
// target source itself).  A key is assigned identically no matter how
// many shards exist, because each source's seq counter advances in that
// source's own execution order — which the conservative-lookahead
// runner preserves.  Every scheduling call ends in the one keyed insert,
// TimingWheel::schedule.  Execution order is ALWAYS ascending key: a
// level-0 bucket is sorted by key once when the cursor first reaches
// its tick, and same-tick children (schedule_at(now) from a running
// callback, including past-clamps) are inserted into the draining
// bucket in key order.  Order is therefore a pure function of the
// event-key set — the property that makes 1-, 2-, 4- and 8-shard runs
// byte-identical.
//
// One run loop (run_core) drives every mode: it runs one window of shard
// events below the next control time tc, reads tc again after any window
// that ran something (its barrier may schedule on the control lane), and
// drains the control events at tc once nothing is left below it.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/annotations.hpp"
#include "common/canonical_key.hpp"
#include "common/small_fn.hpp"
#include "common/time.hpp"

namespace objrpc {

class EventLoop;

/// "No event" sentinel for TimingWheel::next_time / EventLoop queries.
constexpr SimTime kNoEventTime = -1;

/// Event-source id used for the key's low 24 bits when the scheduler is
/// not a registered node (test drivers, main(), the coordinator).
constexpr std::uint32_t kExternalSource = 0x00FFFFFFu;

/// An event with its key, outside any wheel: a cross-shard delivery
/// parked until the barrier (Network's handoff_), or a pending event
/// being re-homed by configure_shards.  `exec_src` is the source it
/// executes as, which picks its wheel.
struct KeyedEvent {
  EventKey key;
  std::uint32_t exec_src;
  SmallFn fn;
};

/// One hierarchical timing wheel.  The single-threaded loop owns one
/// control wheel plus K shard wheels and drives them by key-merge; the
/// parallel runner (sim/shard) hands each shard wheel to a worker
/// thread, which acquires its ShardCap for the duration of an epoch.
class TimingWheel {
 public:
  using Callback = SmallFn;

  TimingWheel(EventLoop* owner, std::uint32_t lane);
  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  SimTime now() const { return now_; }
  /// Floor the wheel clock (used when the facade advances global time
  /// past an idle wheel).  Never moves backwards.
  void set_now(SimTime t) {
    if (t > now_) now_ = t;
  }
  void set_lane(std::uint32_t lane) { lane_ = lane; }
  std::uint32_t lane() const { return lane_; }

  /// The one keyed insert: file `fn` under `key`, to run as source
  /// `exec_src`.  `floor` is the scheduler's current time: `key.at <
  /// floor` is a causality bug (clamped and counted, or aborted under
  /// strict mode); `key.at < now_` after that is a lookahead violation
  /// by the parallel runner (same handling, different message).  Public
  /// wheel operations assert the shard capability internally: the
  /// serial driver's single thread holds every wheel by definition, the
  /// parallel runner's workers hold exactly the one they acquired.
  HOT_PATH void schedule(EventKey key, std::uint32_t exec_src, SimTime floor,
                         Callback&& fn);

  /// Advance the cursor to the next pending event with time <= `limit`
  /// and return that time, or kNoEventTime (cursor parked at or before
  /// `limit`) when there is none.  Sorts the destination bucket on
  /// first arrival at a tick.
  HOT_PATH SimTime next_time(SimTime limit);
  /// Key of the event next_time stopped on (valid only immediately
  /// after a successful next_time, before any schedule into this tick).
  const EventKey& head_key();
  /// Pop and execute the head of the level-0 bucket at the cursor,
  /// leaving the thread's scheduling context exactly as found.
  HOT_PATH void pop_run();
  /// Tight loop: run every event with time <= `limit`; returns whether
  /// anything ran.
  bool run_until(SimTime limit);

  /// Remove every pending event (with its key and callback) so the
  /// facade can re-home them when the partition changes.  Setup-time
  /// only (no execution in progress).
  void extract_all(std::vector<KeyedEvent>& out);

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t window_advances() const { return window_advances_; }
  std::uint64_t clamped_past_schedules() const {
    return clamped_past_schedules_;
  }
  void set_strict_past_schedules(bool strict) {
    strict_past_schedules_ = strict;
  }

  /// The shard capability guarding this wheel's state.  The serial
  /// driver asserts it (single thread holds every wheel); the parallel
  /// runner's workers acquire it for real, one wheel per thread.
  ShardCap& shard() SHARD_RETURN_CAPABILITY(shard_) { return shard_; }

 private:
  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;
  static constexpr unsigned kWheelBits = 10;
  static constexpr std::size_t kSlots = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kLevels = 5;  // covers deltas < 2^50 ns
  static constexpr std::size_t kWords = kSlots / 64;
  static constexpr std::uint64_t kNoTick = ~std::uint64_t{0};

  /// Event nodes are pool-allocated and linked into bucket lists; `next`
  /// doubles as the free-list link after the node is popped.  The
  /// 32-byte link entries live in a dense array (two per cache line on
  /// the scan/cascade path); the callbacks live in parallel CHUNKED
  /// storage whose addresses never move, so pop can invoke the callback
  /// in place instead of relocating it out first.
  struct Entry {
    EventKey key;
    std::uint32_t next = kNoNode;
    std::uint32_t exec_src = kExternalSource;
  };
  static_assert(sizeof(Entry) == 32, "two entries per cache line");
  struct Bucket {
    std::uint32_t head = kNoNode;
    std::uint32_t tail = kNoNode;
  };
  static constexpr std::size_t kChunk = 1024;  // callbacks per chunk

  Callback& fn_at(std::uint32_t idx) REQUIRES_SHARD(shard_) {
    return fn_chunks_[idx >> 10][idx & (kChunk - 1)];
  }
  /// MAY_ALLOC: pool refill — grows the entry array / callback chunks
  /// when the free list is empty; steady state recycles via free_head_.
  MAY_ALLOC std::uint32_t alloc_node(const EventKey& key,
                                     std::uint32_t exec_src, Callback&& fn)
      REQUIRES_SHARD(shard_);
  /// File `idx` into its wheel bucket.  Fresh schedules append,
  /// cascades prepend — EXCEPT into the bucket the cursor is currently
  /// draining (already key-sorted), where insertion is by key.
  void place(std::uint32_t idx, bool cascading) REQUIRES_SHARD(shard_);
  /// Redistribute a higher-level bucket into the levels below.
  void cascade(std::size_t level, std::size_t slot) REQUIRES_SHARD(shard_);
  /// Circular distance (in slots, 0-based) from `from` to the first
  /// occupied slot at `level`, or kNoDist when the level is empty.
  /// Powers next_time's empty-window skip: the cursor jumps straight to
  /// the next slot arrival / cascade boundary instead of walking every
  /// 1024-tick window (a 2^40 ns timer would otherwise cost 2^30 empty
  /// scans).
  /// Two-level occupancy search: at most three countr_zero's (the rest
  /// of `from`'s word, the words after it via the level summary, then
  /// the wrap), never a walk over the level's words.
  static constexpr std::uint64_t kNoDist = ~std::uint64_t{0};
  std::uint64_t first_set_from(std::size_t level, std::size_t from) const
      REQUIRES_SHARD(shard_);
  /// The only writers of the occupancy bitmaps: each keeps the level's
  /// summary word (bit w set iff bits_[level][w] != 0) in step.
  void set_bit(std::size_t level, std::size_t slot) REQUIRES_SHARD(shard_) {
    bits_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
    summary_[level] |= std::uint32_t{1} << (slot >> 6);
  }
  void clear_bit(std::size_t level, std::size_t slot) REQUIRES_SHARD(shard_) {
    std::uint64_t& word = bits_[level][slot >> 6];
    word &= ~(std::uint64_t{1} << (slot & 63));
    if (word == 0) summary_[level] &= ~(std::uint32_t{1} << (slot >> 6));
  }
  /// Sort a level-0 bucket by key.  `at` participates
  /// because a cursor rollback (see place) can leave one slot holding
  /// events of two different windows.
  /// MAY_ALLOC: uses a retained scratch vector (grows on first use).
  MAY_ALLOC void sort_bucket(std::size_t slot) REQUIRES_SHARD(shard_);
  /// pop_run minus the scheduling-context epilogue: leaves tls_ctx_ /
  /// ExecLane pointing at the event just run.  For drain loops (and
  /// EventLoop's key-merge, via friendship) that pop
  /// many events back to back — the next pop overwrites the context
  /// wholesale, so per-event restores are pure overhead; the LOOP
  /// restores once on exit.  Callers MUST save both before the first
  /// call and restore after the last.
  HOT_PATH void pop_run_raw();
  /// Pop the rest of the current tick without re-running next_time.
  /// Sound only right after a pop at this tick: next_time sorted the
  /// bucket before the first pop (sorted_tick_ == tick_), place()'s
  /// ordered fast path keeps it sorted under same-tick reschedules,
  /// and a sorted bucket's head IS what next_time would return — so
  /// while the head's time equals the cursor the scan is pure
  /// overhead.  Exits on an empty bucket, a future-window head, or
  /// anything that unsorted the bucket (cursor rollback).  Same
  /// context contract as pop_run_raw.
  HOT_PATH void drain_current_tick_raw();

  EventLoop* owner_;
  std::uint32_t lane_;
  SimTime now_ = 0;
  /// Wheel cursor: <= every pending event time, == now_ whenever
  /// callbacks can run (all wheel arithmetic is on unsigned ticks).
  std::uint64_t tick_ SHARD_GUARDED_BY(shard_) = 0;
  /// Tick whose level-0 bucket is currently key-sorted (kNoTick: none).
  std::uint64_t sorted_tick_ SHARD_GUARDED_BY(shard_) = kNoTick;
  /// Lower bound on every pending event time.  Lets the serial merge
  /// and the parallel coordinator ask "anything <= limit?" of an idle
  /// wheel without re-scanning its windows each iteration.
  SimTime min_bound_ SHARD_GUARDED_BY(shard_) = 0;
  std::size_t size_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t window_advances_ = 0;
  std::uint64_t clamped_past_schedules_ = 0;
  bool strict_past_schedules_ = false;
  ShardCap shard_;
  Bucket buckets_[kLevels][kSlots] SHARD_GUARDED_BY(shard_);
  std::uint64_t bits_[kLevels][kWords] SHARD_GUARDED_BY(shard_) = {};
  static_assert(kWords <= 32, "one summary word per level");
  std::uint32_t summary_[kLevels] SHARD_GUARDED_BY(shard_) = {};
  std::vector<Entry> entries_ SHARD_GUARDED_BY(shard_);
  std::vector<std::unique_ptr<Callback[]>> fn_chunks_
      SHARD_GUARDED_BY(shard_);
  std::uint32_t free_head_ SHARD_GUARDED_BY(shard_) = kNoNode;
  struct SortRec {
    EventKey key;
    std::uint32_t idx;
  };
  std::vector<SortRec> sort_scratch_ SHARD_GUARDED_BY(shard_);

  friend class EventLoop;
};

/// A deterministic event loop over virtual time.  Ties are broken by
/// canonical event key (see file header), never by pointer, hash order,
/// or shard count.
class EventLoop {
  /// Scheduling context of the code running on this thread.  pop_run
  /// points it at the executing wheel/source; outside callbacks it is
  /// default (owner null), which every EventLoop reads as "external".
  /// (Defined up front so ObserverReplayScope below can hold one.)
  struct SchedCtx {
    EventLoop* owner = nullptr;
    TimingWheel* wheel = nullptr;
    std::uint32_t src = kExternalSource;
    /// Calls to next_in_event() so far in this context.
    std::uint32_t calls = 0;
    /// Key of the executing event (zero outside any event).
    EventKey key;
  };

 public:
  using Callback = SmallFn;
  using DrainHook = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time as seen by the calling context: inside a
  /// callback this is the executing wheel's clock, outside it is the
  /// global high-water mark.
  SimTime now() const;

  /// Schedule `fn` at absolute time `at` (>= now).  From a node
  /// callback the event stays on that node's wheel (its own timer);
  /// from outside, or from control-lane code, it goes to the control
  /// wheel.  Scheduling into the past is a causality bug in the caller:
  /// the event is clamped to `now` and counted
  /// (`clamped_past_schedules`), and under strict mode
  /// (CHECK_INVARIANTS=1) it aborts with the offending times so the
  /// caller gets fixed instead of silently reordered.
  HOT_PATH void schedule_at(SimTime at, Callback&& fn) {
    schedule_keyed(reserve_key(at), std::move(fn));
  }
  /// Schedule `fn` after `delay` from now.
  HOT_PATH void schedule_after(SimDuration delay, Callback&& fn) {
    schedule_at(now() + delay, std::move(fn));
  }

  /// The CONTEXT key schedule_at(at) would stamp right now, reserved:
  /// the seq counter advances exactly as if an event had been
  /// scheduled, but nothing is inserted.  Deadline timers reserve each
  /// deadline's key when it is armed and insert only the earliest live
  /// one (schedule_keyed); a fused delivery reserves the slot its
  /// receive residence's event used to take, so the node's later keys
  /// do not shift.
  HOT_PATH EventKey reserve_key(SimTime at);
  /// Insert `fn` under a key reserved earlier by reserve_key in the
  /// SAME context (same node, or control lane).  Lands where
  /// schedule_at from that context would have put it.
  HOT_PATH void schedule_keyed(const EventKey& key, Callback&& fn);

  /// The ROUTED key of an event at `at` that will EXECUTE as another
  /// node but is STAMPED by the calling context's seq counter, so two
  /// shards delivering to the same node never race a counter: (at, lane
  /// | key_time, sender stamp).  A fused frame delivery keys under the
  /// frame's arrival time, which is the sched_time the receive
  /// residence's own event used to carry (DESIGN.md §7).  The sender
  /// mints it once, then lands the delivery directly or parks it for
  /// the barrier (Network::transmit).
  HOT_PATH EventKey routed_key(SimTime at, SimTime key_time);

  /// Insert a keyed event into `exec_src`'s wheel (kExternalSource:
  /// wheel 0), to run as `exec_src`.  The one landing call: direct
  /// frame deliveries, barrier handoffs (Network::merge_epoch_logs) and
  /// configure_shards' re-homing.  The floor is the key's own time, so
  /// an event behind the wheel's clock is a lookahead violation
  /// (aborts under strict mode).
  HOT_PATH void land(const EventKey& key, std::uint32_t exec_src,
                     Callback&& fn) {
    wheel_of_source(exec_src)->schedule(key, exec_src, key.at, std::move(fn));
  }

  /// The source the calling context executes as: a node id inside a
  /// node callback (or with_source), kExternalSource elsewhere.
  std::uint32_t current_source() const {
    const SchedCtx& c = tls_ctx_;
    if (c.owner == this && c.wheel != nullptr && c.wheel != &control_) {
      return c.src;
    }
    return kExternalSource;
  }

  /// Run `f` with now() reading `at` (not later than now) in the calling
  /// context, then restore the clock.  Observers of a fused delivery
  /// (packet taps) run under it so they read the frame's arrival time,
  /// not the end of the receive residence the event executes at.  `f`
  /// must not schedule.
  template <typename F>
  void at_time(SimTime at, F&& f) {
    const SchedCtx& c = tls_ctx_;
    SimTime& clock =
        c.owner == this && c.wheel != nullptr ? c.wheel->now_ : global_now_;
    const SimTime saved = clock;
    clock = at;
    f();
    clock = saved;
  }

  /// Schedule an event that executes as node `src` under its SOURCE
  /// key, stamped from src's OWN seq counter.  Callable from setup or
  /// control-lane code only (a node-context caller would race the
  /// target's counter); used for deterministic open-loop injection that
  /// bypasses the control wheel entirely (no barrier per injection in
  /// parallel runs).  `at < now` clamps like schedule_at.
  void schedule_on_source(std::uint32_t src, SimTime at, Callback&& fn) {
    wheel_of_source(src)->schedule(source_key(src, at), src, now(),
                                   std::move(fn));
  }

  /// Run callbacks as node `src` (floor src's wheel clock to global
  /// now, point the scheduling context at src).  Used by control-lane
  /// code that invokes node callbacks inline (crash/revive observers).
  template <typename F>
  void with_source(std::uint32_t src, F&& f) {
    TimingWheel* w = wheel_of_source(src);
    w->set_now(now());
    const SchedCtx saved = tls_ctx_;
    tls_ctx_ = SchedCtx{this, w, src, 0, {}};
    f();
    tls_ctx_ = saved;
  }

  /// Run one event; returns false when every wheel is empty.
  bool step();
  /// Run until every wheel drains.
  void run();
  /// Run until drained or virtual time would pass `deadline`; events at
  /// exactly `deadline` execute, and now() lands on `deadline`.
  void run_until(SimTime deadline);

  // --- sharding -----------------------------------------------------

  /// Declare an event source (Network::add_node).  Sources index the
  /// per-source seq counters and the source->wheel map.
  void register_source(std::uint32_t src);
  /// Partition sources over `shards` wheels (shard_of[src] in
  /// [0, shards)).  Setup-time only: pending shard events are re-homed
  /// to their source's new wheel with keys intact, so a partition
  /// change never reorders anything.  The control wheel moves to lane
  /// `shards`.
  void configure_shards(std::uint32_t shards,
                        const std::vector<std::uint32_t>& shard_of);
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(wheels_.size());
  }
  std::uint32_t shard_of_source(std::uint32_t src) const {
    return src < wheel_of_.size() ? wheel_of_[src] : 0;
  }
  TimingWheel& wheel(std::uint32_t i) { return *wheels_[i]; }
  TimingWheel& control_wheel() { return control_; }

  /// Installed by sim/shard's ShardRunner.  The run loop hands it one
  /// window at a time: run shard events up to `limit` (inclusive, below
  /// the next control time), or some prefix of them, and return whether
  /// anything ran.  Without a driver the loop runs the window itself by
  /// key-merge (same order, one thread).
  struct ParallelDriver {
    virtual ~ParallelDriver() = default;
    virtual bool run_window(SimTime limit) = 0;
  };
  void set_parallel_driver(ParallelDriver* d) { driver_ = d; }

  /// Canonical key of the event executing on this thread, with `at`
  /// read as now(): the event's own time inside a callback, a tap's
  /// arrival time under at_time, the global clock outside any event
  /// (where a and b are 0).  The observer journal stamps its records
  /// with it and the wire digest keys its facts by it.
  EventKey event_key() const {
    EventKey key = tls_ctx_.key;
    key.at = now();
    return key;
  }
  /// 0 on the first call inside the executing event, 1 on the next, and
  /// so on: program order within one event, which its key alone does
  /// not encode.  Every event starts again at 0.
  static std::uint32_t next_in_event() { return tls_ctx_.calls++; }
  /// True when the calling context is external or control-lane (not a
  /// node callback).  Control-plane mutations (crash/revive) assert
  /// this under strict mode.
  bool in_control_context() const {
    return tls_ctx_.owner != this || tls_ctx_.wheel == &control_;
  }

  /// RAII context for barrier-time observer replay (DESIGN.md §17).
  /// The journal replays deferred observer records on the coordinator
  /// thread; this scope makes that thread look like the control lane
  /// (so pool releases land on the control free list and
  /// in_control_context() holds) and lets advance() present each
  /// record's delivery time as now() — the same clock the observer
  /// would have read inline.  Safe to interleave with the epoch loop:
  /// replayed times never exceed the epoch horizon, and set_now only
  /// moves a clock forward, so the next control drain is unaffected.
  class ObserverReplayScope {
   public:
    explicit ObserverReplayScope(EventLoop& loop);
    ~ObserverReplayScope();
    ObserverReplayScope(const ObserverReplayScope&) = delete;
    ObserverReplayScope& operator=(const ObserverReplayScope&) = delete;
    /// Present `at` as the current time for subsequent records.
    void advance(SimTime at);

   private:
    EventLoop& loop_;
    SchedCtx saved_ctx_;
    std::uint32_t saved_lane_;
  };

  /// Invoked whenever run()/run_until() returns with the queue fully
  /// drained (simulation quiesce).  The invariant checker validates its
  /// at-rest invariants here; the hook must not schedule events.
  void set_drain_hook(DrainHook hook) { drain_hook_ = std::move(hook); }

  bool empty() const { return pending() == 0; }
  std::size_t pending() const {
    std::size_t n = control_.pending();
    for (const auto& w : wheels_) n += w->pending();
    return n;
  }
  std::uint64_t events_executed() const {
    std::uint64_t n = control_.events_executed();
    for (const auto& w : wheels_) n += w->events_executed();
    return n;
  }
  /// Times a wheel cursor left an exhausted 1024-tick window for a later
  /// one (the scan cost next_time pays beyond the events themselves).
  std::uint64_t window_advances() const {
    std::uint64_t n = control_.window_advances();
    for (const auto& w : wheels_) n += w->window_advances();
    return n;
  }

  /// Times schedule_at was called with `at < now` (clamped to now).
  std::uint64_t clamped_past_schedules() const {
    std::uint64_t n = control_.clamped_past_schedules();
    for (const auto& w : wheels_) n += w->clamped_past_schedules();
    return n;
  }
  /// Abort on past-time schedules instead of clamping.  Defaults to the
  /// CHECK_INVARIANTS environment toggle; the cluster config can arm it
  /// explicitly and tests that exercise the clamp path disarm it.
  void set_strict_past_schedules(bool strict);
  bool strict_past_schedules() const { return strict_past_schedules_; }

 private:
  static constexpr std::uint64_t kShardLaneBit = std::uint64_t{1} << 62;

  /// Defined here, constant-initialised: every read is a plain TLS
  /// access, with no TLS wrapper call for a definition in another
  /// translation unit.
  static inline thread_local constinit SchedCtx tls_ctx_{
      nullptr, nullptr, kExternalSource, 0, {}};

  TimingWheel* wheel_of_source(std::uint32_t src) {
    return wheels_[shard_of_source(src)].get();
  }
  std::uint64_t next_seq(std::uint32_t src) {
    if (src == kExternalSource) return ++external_seq_;
    return ++source_seq_[src];
  }
  /// Build key b for an event stamped by `src` (seq<<24 | src).
  std::uint64_t stamp(std::uint32_t src) {
    return (next_seq(src) << 24) | (src & 0x00FFFFFFu);
  }
  /// The SOURCE key schedule_on_source stamps.
  EventKey source_key(std::uint32_t src, SimTime at);

  /// Run one window of shard events with time <= limit: the driver's
  /// window, else key-merge when K > 1, the tight loop when K == 1.
  /// Returns whether anything ran.
  bool run_shards(SimTime limit);
  /// A wheel's next event (<= some limit) as the key-merge last read it,
  /// with the wheel's pending() at that read: a count that has since
  /// moved means a schedule landed there and the head must be re-read.
  struct Head {
    EventKey key{kNoEventTime};  ///< at kNoEventTime: nothing <= the limit
    std::size_t pending = 0;
  };
  static void read_head(TimingWheel& w, SimTime limit, Head& h);
  /// Run every shard event with time <= limit in key order; returns
  /// whether anything ran.
  bool merge_run(SimTime limit);
  /// The one run loop: alternate shard windows below the next control
  /// time with control drains, up to `deadline`.
  void run_core(SimTime deadline);
  /// Floor every wheel clock and the global clock to `t`.
  void settle_clocks(SimTime t);

  TimingWheel control_;
  std::vector<std::unique_ptr<TimingWheel>> wheels_;
  std::vector<std::uint32_t> wheel_of_;  ///< source -> wheel index
  /// Per-source monotone seq counters (the high bits of key b).  Partition-
  /// independent: each advances in its source's own execution order.
  std::vector<std::uint64_t> source_seq_;
  std::uint64_t external_seq_ = 0;
  /// Global high-water mark; what now() returns outside callbacks.
  SimTime global_now_ = 0;
  bool strict_past_schedules_ = false;
  ParallelDriver* driver_ = nullptr;
  DrainHook drain_hook_;
  std::vector<Head> heads_;  ///< merge_run's per-wheel cache

  friend class TimingWheel;
  /// The parallel runner runs coordinator windows with the private
  /// key-merge and folds its workers' wheel clocks into global time.
  friend class ShardRunner;
};

}  // namespace objrpc
