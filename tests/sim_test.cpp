// Tests for the discrete-event simulator: event loop, links, switches,
// match-action tables, topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "sim/deadline_timer.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sim/pipeline.hpp"
#include "sim/switch_node.hpp"
#include "sim/topology.hpp"

namespace objrpc {
namespace {

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, StableTieBreaking) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, ScheduleAfterUsesNow) {
  EventLoop loop;
  SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventLoop, PastSchedulingClamps) {
  EventLoop loop;
  // This test exercises the lenient clamp path on purpose; under
  // CHECK_INVARIANTS=1 the constructor default would abort instead.
  loop.set_strict_past_schedules(false);
  SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [&] { fired_at = loop.now(); });  // in the past
  });
  EXPECT_EQ(loop.clamped_past_schedules(), 0u);
  loop.run();
  EXPECT_EQ(fired_at, 100);
  // The causality bug is visible in the counter even though the event
  // still ran (clamped to now).
  EXPECT_EQ(loop.clamped_past_schedules(), 1u);
}

TEST(EventLoop, PastSchedulingAbortsWhenStrict) {
  EventLoop loop;
  loop.set_strict_past_schedules(true);
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [] {});  // causality violation
  });
  EXPECT_DEATH(loop.run(), "in the past");
}

TEST(EventLoop, PastScheduleOnSourceClamps) {
  // schedule_on_source (Network::schedule_on) stamps the target's own
  // key but judges `at` against the caller's clock, as schedule_at does.
  EventLoop loop;
  loop.set_strict_past_schedules(false);
  loop.register_source(0);
  SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_on_source(0, 10, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 100);
  EXPECT_EQ(loop.clamped_past_schedules(), 1u);
}

TEST(EventLoop, PastScheduleOnSourceAbortsWhenStrict) {
  EventLoop loop;
  loop.set_strict_past_schedules(true);
  loop.register_source(0);
  loop.schedule_at(100, [&] {
    loop.schedule_on_source(0, 10, [] {});  // causality violation
  });
  EXPECT_DEATH(loop.run(), "in the past");
}

TEST(EventLoop, MoveOnlyCallbacksRunOnceInOrder) {
  // The old std::function queue required copyable callbacks and moved
  // them out of priority_queue::top() via const_cast; the intrusive heap
  // owns each callback exactly once.  Move-only captures prove no copy
  // happens, and the sentinel counts prove no double-invocation.
  EventLoop loop;
  std::vector<int> order;
  std::vector<int> invocations(3, 0);
  for (int i = 2; i >= 0; --i) {
    auto token = std::make_unique<int>(i);
    loop.schedule_at(static_cast<SimTime>(10 * (i + 1)),
                     [&order, &invocations, token = std::move(token)] {
                       ++invocations[static_cast<std::size_t>(*token)];
                       order.push_back(*token);
                     });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(invocations, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(loop.events_executed(), 3u);
}

TEST(EventLoop, CallbacksDestroyedAfterRun) {
  // Pool nodes must release the callback (and its captures) as soon as
  // it runs, not when the loop dies — captured shared state would
  // otherwise linger for the whole simulation.
  EventLoop loop;
  auto shared = std::make_shared<int>(42);
  std::weak_ptr<int> watch = shared;
  loop.schedule_at(5, [keep = std::move(shared)] { (void)*keep; });
  loop.run();
  EXPECT_TRUE(watch.expired());
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(10, [&] { ++count; });
  loop.schedule_at(20, [&] { ++count; });
  loop.schedule_at(30, [&] { ++count; });
  loop.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) loop.schedule_after(1, recurse);
  };
  loop.schedule_at(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.events_executed(), 100u);
}

TEST(EventLoop, CursorRollbackRefilesFarEntries) {
  // Two wheels under the serial key-merge: peeking parks wheel 1's
  // cursor at its first event, 5 ms out, with a burst filed in level 0
  // next to it.  A frame from wheel 0 then lands on wheel 1 far earlier
  // and rolls its cursor back; the burst must still run at its own
  // times, after the early arrival, and reaching it must cost a few
  // cursor jumps — not one per 1024-tick window of the ~5 ms rolled
  // back over (~5000 when level 0 is left filed against the old cursor).
  EventLoop loop;
  loop.register_source(0);
  loop.register_source(1);
  loop.configure_shards(2, {0, 1});
  constexpr SimTime kFar = 5 * kMillisecond;
  std::vector<std::pair<int, SimTime>> ran;
  auto note = [&](int tag) { ran.emplace_back(tag, loop.now()); };
  for (int i = 0; i < 4; ++i) {
    loop.schedule_on_source(1, kFar + 100 * i, [&, i] { note(10 + i); });
  }
  loop.schedule_on_source(0, 10, [&] {
    note(0);
    loop.land(loop.routed_key(20, loop.now()), 1, [&] { note(1); });
  });
  loop.run();
  const std::vector<std::pair<int, SimTime>> want = {
      {0, 10}, {1, 20}, {10, kFar}, {11, kFar + 100},
      {12, kFar + 200}, {13, kFar + 300}};
  EXPECT_EQ(ran, want);
  EXPECT_LT(loop.window_advances(), 16u);
}

// --- Wheel vs. reference model ------------------------------------------------

std::uint64_t wheel_seed() {
  const char* v = std::getenv("WHEEL_SEED");
  return v != nullptr && v[0] != '\0' ? std::strtoull(v, nullptr, 0)
                                      : 0x5EED;
}

/// The event script the wheel and the reference model both follow.  An
/// event's children are a pure function of the seed and the event's
/// key b; key b's are handed out in execution order, so the two models
/// agree on every key exactly as long as they agree on the order.
class WheelScript {
 public:
  static constexpr std::uint32_t kSources = 8;
  struct Spawn {
    std::uint32_t dst;
    EventKey key;
  };

  explicit WheelScript(std::uint64_t seed) : seed_(seed) {}

  /// Children of the event keyed `key_b` running at `now` (0-2 each,
  /// until the event budget is spent).
  template <typename F>
  void spawn(SimTime now, std::uint64_t key_b, F&& schedule) {
    std::uint64_t h =
        SplitMix64(seed_ ^ (key_b * 0x9E3779B97F4A7C15ULL)).next();
    static constexpr int kKids[10] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 2};
    const int kids = issued_ >= kBudget ? 0 : kKids[h % 10];
    for (int i = 0; i < kids; ++i) {
      h = SplitMix64(h).next();
      schedule(child(h, now));
    }
  }

  /// A fresh root event at or after `now` (test-driver injection).
  Spawn root(SimTime now, std::uint64_t salt) {
    return child(SplitMix64(seed_ ^ ~salt).next(), now);
  }

 private:
  static constexpr std::uint64_t kBudget = 4000;

  Spawn child(std::uint64_t h, SimTime now) {
    const std::uint64_t r = h >> 8;
    SimTime at = now;
    // Far timers are capped so repeated ones cannot overflow SimTime.
    const bool far_ok = now < (SimTime{1} << 56);
    switch (h % 10) {
      case 0:
      case 1:
        break;  // same-tick child
      case 2:
      case 3:
        at = now + 1 + static_cast<SimTime>(r % 2048);
        break;
      case 4:
      case 5: {
        // Level boundaries 2^(10l) - 1, 2^(10l), 2^(10l) + 1; l = 5 is
        // the wheel horizon.
        const unsigned level = static_cast<unsigned>(r % (far_ok ? 6 : 3));
        at = now + (SimTime{1} << (10 * level)) +
             static_cast<SimTime>((r >> 3) % 3) - 1;
        break;
      }
      case 6: {
        // Slots 63/64 (a bitmap word boundary) and 1023/0 (the window
        // wrap), up to four windows out.
        static constexpr SimTime kEdge[4] = {63, 64, 1023, 1024};
        at = (now | 1023) + 1 + 1024 * static_cast<SimTime>((r >> 2) % 4) +
             kEdge[r % 4];
        break;
      }
      case 7:
        // Beyond the 2^50 ns horizon.
        if (far_ok) {
          at = now + (SimTime{1} << 50) + static_cast<SimTime>(r % 4096);
        }
        break;
      default:
        at = now + static_cast<SimTime>(r % (std::uint64_t{1} << 30));
        break;
    }
    // Small key a values collide often, so key b decides many ties, and
    // a same-tick child can sort ahead of its parent's later siblings.
    return Spawn{static_cast<std::uint32_t>((h >> 40) % kSources),
                 EventKey{at, (std::uint64_t{1} << 62) | ((h >> 48) % 4),
                          ++issued_}};
  }

  std::uint64_t seed_;
  std::uint64_t issued_ = 0;
};

/// Canonical order by construction: a sorted set of (at, key_a, key_b).
class ReferenceLoop {
 public:
  explicit ReferenceLoop(std::uint64_t seed) : script_(seed) {}
  void add(const WheelScript::Spawn& s) {
    q_.emplace(s.key.at, s.key.a, s.key.b);
  }
  WheelScript& script() { return script_; }
  void run_until(SimTime limit) {
    while (!q_.empty() && std::get<0>(*q_.begin()) <= limit) {
      const auto [at, key_a, key_b] = *q_.begin();
      q_.erase(q_.begin());
      order.push_back(key_b);
      script_.spawn(at, key_b, [&](const WheelScript::Spawn& c) { add(c); });
    }
  }
  std::vector<std::uint64_t> order;

 private:
  WheelScript script_;
  std::set<std::tuple<SimTime, std::uint64_t, std::uint64_t>> q_;
};

class WheelUnderTest {
 public:
  WheelUnderTest(std::uint64_t seed, std::uint32_t shards) : script_(seed) {
    for (std::uint32_t s = 0; s < WheelScript::kSources; ++s) {
      loop_.register_source(s);
    }
    if (shards > 1) {
      std::vector<std::uint32_t> shard_of;
      for (std::uint32_t s = 0; s < WheelScript::kSources; ++s) {
        shard_of.push_back(s % shards);
      }
      loop_.configure_shards(shards, shard_of);
    }
  }
  void add(const WheelScript::Spawn& s) {
    loop_.land(s.key, s.dst, [this, at = s.key.at, key_b = s.key.b] {
      EXPECT_EQ(loop_.now(), at);
      order.push_back(key_b);
      script_.spawn(at, key_b,
                    [this](const WheelScript::Spawn& c) { add(c); });
    });
  }
  WheelScript& script() { return script_; }
  EventLoop& loop() { return loop_; }
  std::vector<std::uint64_t> order;

 private:
  EventLoop loop_;
  WheelScript script_;
};

TEST(EventLoop, WheelMatchesReferenceOrder) {
  // 1 wheel, and 4 wheels under the serial key-merge, against a sorted
  // reference: deltas at every level boundary, word and window edges,
  // timers past the horizon, same-tick children, random run_until
  // limits with injections between them, and (4 wheels) cross-wheel
  // schedules that land below a wheel's parked cursor.
  const std::uint64_t seed = wheel_seed();
  SCOPED_TRACE("WHEEL_SEED=" + std::to_string(seed));
  for (std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ReferenceLoop ref(seed);
    WheelUnderTest real(seed, shards);
    Rng limits(seed + 1);
    SimTime now = 0;
    for (std::uint64_t round = 0; round < 40; ++round) {
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t salt = round * 4 + static_cast<std::uint64_t>(i);
        ref.add(ref.script().root(now, salt));
        real.add(real.script().root(now, salt));
      }
      // Limits from one tick to far past the horizon.
      now += static_cast<SimTime>(
          limits.next_below(std::uint64_t{1} << (limits.next_below(52))));
      ref.run_until(now);
      real.loop().run_until(now);
      ASSERT_EQ(real.order, ref.order) << "after run_until(" << now << ")";
      ASSERT_EQ(real.loop().now(), now);
    }
    ref.run_until(std::numeric_limits<SimTime>::max());
    real.loop().run();
    ASSERT_EQ(real.order, ref.order);
    EXPECT_TRUE(real.loop().empty());
    EXPECT_GE(ref.order.size(), 4000u);
  }
}

TEST(EventLoop, MergeRunSeesCrossWheelScheduleBelowCachedHead) {
  // Wheel 1's head at t=100 is cached by the key-merge.  An event on
  // wheel 0 then lands three events on wheel 1: one earlier (a cursor
  // rollback) and two at t=100 with keys below the cached head.  The
  // merge must re-read wheel 1, and interleave wheel 0's own t=100
  // event in key order — whether driven by run() or by step().
  constexpr std::uint64_t kLane = std::uint64_t{1} << 62;
  for (bool stepping : {false, true}) {
    SCOPED_TRACE(stepping ? "step" : "run");
    EventLoop loop;
    loop.register_source(0);
    loop.register_source(1);
    loop.configure_shards(2, {0, 1});
    std::vector<std::string> ran;
    loop.land({100, kLane | 5, 50}, 1, [&] { ran.push_back("B@100/5/50"); });
    loop.land({100, kLane | 5, 30}, 0, [&] { ran.push_back("A@100/5/30"); });
    loop.land({50, kLane | 0, 1}, 0, [&] {
      ran.push_back("A@50");
      loop.land({100, kLane | 5, 10}, 1, [&] { ran.push_back("B@100/5/10"); });
      loop.land({100, kLane | 3, 99}, 1, [&] { ran.push_back("B@100/3/99"); });
      loop.land({80, kLane | 9, 9}, 1, [&] { ran.push_back("B@80"); });
    });
    if (stepping) {
      while (loop.step()) {
      }
    } else {
      loop.run();
    }
    const std::vector<std::string> want = {"A@50", "B@80", "B@100/3/99",
                                           "B@100/5/10", "A@100/5/30",
                                           "B@100/5/50"};
    EXPECT_EQ(ran, want);
  }
}

// --- DeadlineTimer -------------------------------------------------------------

/// A loop with the timer's owner (source 0) and one other node
/// (source 1), and a timer that records each expiry as (id, time).
struct TimerRig {
  EventLoop loop;
  std::vector<std::pair<int, SimTime>> expired;
  DeadlineTimer<int> timer{loop, 0, [this](int id) {
                             expired.emplace_back(id, loop.now());
                           }};
  TimerRig() {
    loop.register_source(0);
    loop.register_source(1);
  }
  /// Run `f` at `at` in the owner's own context.
  template <typename F>
  void as_owner(SimTime at, F f) {
    loop.schedule_on_source(0, at, std::move(f));
  }
};

using Expiries = std::vector<std::pair<int, SimTime>>;

TEST(DeadlineTimer, ReArmReplacesTheEarlierDeadline) {
  TimerRig r;
  r.as_owner(0, [&] {
    r.timer.arm(1, 100);
    r.timer.arm(2, 100);
  });
  r.as_owner(50, [&] {
    r.timer.arm(1, 100);  // later: expires at 150, not 100
    r.timer.arm(2, 20);   // earlier: expires at 70, not 100
  });
  r.loop.run();
  EXPECT_EQ(r.expired, (Expiries{{2, 70}, {1, 150}}));
  EXPECT_EQ(r.timer.events_pending(), 0u);
}

TEST(DeadlineTimer, DisarmedIdNeverExpires) {
  TimerRig r;
  r.as_owner(0, [&] {
    r.timer.arm(1, 100);
    r.timer.arm(2, 200);
    r.timer.arm(3, 300);
  });
  r.as_owner(50, [&] {
    r.timer.disarm(1);
    r.timer.disarm(3);
  });
  r.loop.run();
  EXPECT_EQ(r.expired, (Expiries{{2, 200}}));
  // The dead tail cost no event: the run drained at the live deadline.
  EXPECT_EQ(r.loop.now(), 200);
  EXPECT_EQ(r.timer.events_pending(), 0u);
}

TEST(DeadlineTimer, LiveDeadlineAfterDeadHeadFiresUnderItsReservedKey) {
  // Both deadlines fall at t=100.  The dead head's event fires first;
  // the live one must then run under the key it reserved when armed at
  // t=10, ahead of the owner's own event for t=100 scheduled at t=20.
  TimerRig r;
  std::vector<std::string> order;
  DeadlineTimer<int> timer(
      r.loop, 0, [&](int id) { order.push_back(std::to_string(id)); });
  r.as_owner(0, [&] { timer.arm(1, 100); });
  r.as_owner(10, [&] { timer.arm(2, 90); });
  r.as_owner(20, [&] {
    r.loop.schedule_at(100, [&] { order.push_back("later event"); });
  });
  r.as_owner(30, [&] { timer.disarm(1); });
  r.loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"2", "later event"}));
}

TEST(DeadlineTimer, ArmOutsideTheOwnersContextGetsItsOwnEvent) {
  TimerRig r;
  // From the test driver (control lane) and from another node: each
  // arm is its own event in the arming context, where schedule_at from
  // there would have put it, and none is the timer's own.
  std::vector<std::string> order;
  r.timer.arm(1, 100);
  r.loop.schedule_at(100, [&] { order.push_back("driver event"); });
  EXPECT_EQ(r.loop.pending(), 2u);
  r.loop.schedule_on_source(1, 0, [&] { r.timer.arm(2, 150); });
  // The owner's own arm gets the timer's one event.
  r.as_owner(0, [&] { r.timer.arm(3, 120); });
  r.loop.run_until(0);
  EXPECT_EQ(r.loop.pending(), 4u);
  EXPECT_EQ(r.timer.events_pending(), 1u);
  // Re-armed from outside: the first event stays, and fires as a no-op.
  r.loop.schedule_on_source(1, 10, [&] { r.timer.arm(2, 200); });
  r.loop.run_until(10);
  EXPECT_EQ(r.loop.pending(), 5u);
  r.loop.run_until(100);
  EXPECT_EQ(r.expired, (Expiries{{1, 100}}));
  EXPECT_EQ(order, (std::vector<std::string>{"driver event"}));
  r.loop.run();
  EXPECT_EQ(r.expired, (Expiries{{1, 100}, {3, 120}, {2, 210}}));
  EXPECT_EQ(r.timer.events_pending(), 0u);
}

TEST(DeadlineTimer, EventsPendingCountsOneEventPerEarliestArm) {
  TimerRig r;
  r.as_owner(0, [&] {
    for (int i = 0; i < 50; ++i) r.timer.arm(i, 1000 + i);
    EXPECT_EQ(r.timer.events_pending(), 1u);
    r.timer.arm(99, 10);  // ahead of the outstanding event: a second one
    EXPECT_EQ(r.timer.events_pending(), 2u);
  });
  r.loop.run_until(10);
  EXPECT_EQ(r.expired, (Expiries{{99, 10}}));
  EXPECT_EQ(r.timer.events_pending(), 1u);
  r.as_owner(20, [&] {
    for (int i = 0; i < 50; ++i) r.timer.disarm(i);
  });
  r.loop.run();
  EXPECT_EQ(r.expired.size(), 1u);
  EXPECT_EQ(r.timer.events_pending(), 0u);
  // The lone event fired at the earliest dead deadline and found
  // nothing live behind it.
  EXPECT_EQ(r.loop.now(), 1000);
}

// --- MatchActionTable ---------------------------------------------------------

TEST(MatchActionTable, InsertLookupErase) {
  MatchActionTable t(128, 10);
  EXPECT_TRUE(t.insert(U128{1, 2}, Action::forward_to(3)));
  auto a = t.lookup(U128{1, 2});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, ActionKind::forward);
  EXPECT_EQ(a->port, 3u);
  EXPECT_TRUE(t.erase(U128{1, 2}));
  EXPECT_FALSE(t.lookup(U128{1, 2}).has_value());
  EXPECT_FALSE(t.erase(U128{1, 2}));
}

TEST(MatchActionTable, CapacityEnforced) {
  MatchActionTable t(128, 2);
  EXPECT_TRUE(t.insert(U128{0, 1}, Action::drop()));
  EXPECT_TRUE(t.insert(U128{0, 2}, Action::drop()));
  EXPECT_EQ(t.insert(U128{0, 3}, Action::drop()).error().code,
            Errc::capacity_exceeded);
  // Updates to existing keys always succeed.
  EXPECT_TRUE(t.insert(U128{0, 1}, Action::flood()));
  EXPECT_EQ(t.lookup(U128{0, 1})->kind, ActionKind::flood);
}

TEST(MatchActionTable, HitMissCounters) {
  MatchActionTable t(128, 10);
  ASSERT_TRUE(t.insert(U128{0, 1}, Action::drop()));
  (void)t.lookup(U128{0, 1});
  (void)t.lookup(U128{0, 2});
  (void)t.lookup(U128{0, 1});
  EXPECT_EQ(t.hits(), 2u);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(TofinoCapacity, CalibratedToPaperPoints) {
  // §3.2: "With 64-bit ID fields, we could store ~1.8M exact entries and
  // with 128-bit IDs, we could fit ~850K."
  EXPECT_EQ(tofino_exact_capacity(64), 1'800'000u);
  EXPECT_EQ(tofino_exact_capacity(128), 850'000u);
}

TEST(TofinoCapacity, MonotoneNonIncreasingInWidth) {
  std::uint64_t prev = tofino_exact_capacity(8);
  for (std::uint32_t bits = 16; bits <= 256; bits += 8) {
    const std::uint64_t cap = tofino_exact_capacity(bits);
    EXPECT_LE(cap, prev) << bits;
    prev = cap;
  }
}

// --- Network / links ----------------------------------------------------------

/// Minimal sink node recording arrivals.
class SinkNode : public NetworkNode {
 public:
  SinkNode(Network& net, NodeId id, std::string name)
      : NetworkNode(net, id, std::move(name)) {}
  void on_packet(PortId in_port, Packet pkt) override {
    arrivals.push_back({in_port, std::move(pkt), loop().now()});
  }
  void transmit(PortId port, Packet pkt) { send(port, std::move(pkt)); }
  struct Arrival {
    PortId port;
    Packet pkt;
    SimTime at;
  };
  std::vector<Arrival> arrivals;
};

Packet make_packet(std::size_t payload_size) {
  Packet p;
  p.data.assign(payload_size, 0xAB);
  return p;
}

TEST(Network, DeliversWithLatencyAndTxDelay) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 10 * kMicrosecond;
  lp.bandwidth_bps = 8e9;  // 1 byte/ns
  net.connect(a.id(), b.id(), lp);

  a.transmit(0, make_packet(1000));
  net.loop().run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  // tx = 1024 bytes at 1 B/ns = 1024ns; then 10us propagation.
  EXPECT_EQ(b.arrivals[0].at, 1024 + 10 * kMicrosecond);
  EXPECT_EQ(net.stats().frames_delivered, 1u);
}

TEST(Network, SerializationDelayQueuesFrames) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 0;
  lp.bandwidth_bps = 8e9;
  net.connect(a.id(), b.id(), lp);

  a.transmit(0, make_packet(1000));  // 1024ns on the wire
  a.transmit(0, make_packet(1000));
  net.loop().run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].at, 1024);
  EXPECT_EQ(b.arrivals[1].at, 2048);  // waited for the first
}

TEST(Network, QueueBoundDropsExcess) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 0;
  lp.bandwidth_bps = 8e6;  // slow: 1 byte per us
  lp.queue_bytes = 2100;   // fits two 1024B frames, not three
  net.connect(a.id(), b.id(), lp);

  for (int i = 0; i < 3; ++i) a.transmit(0, make_packet(1000));
  net.loop().run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(net.stats().frames_dropped_queue, 1u);
}

TEST(Network, LossRateDropsDeterministically) {
  Network net(42);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.loss_rate = 0.5;
  net.connect(a.id(), b.id(), lp);
  for (int i = 0; i < 1000; ++i) a.transmit(0, make_packet(10));
  net.loop().run();
  const auto delivered = b.arrivals.size();
  EXPECT_GT(delivered, 400u);
  EXPECT_LT(delivered, 600u);
  EXPECT_EQ(net.stats().frames_dropped_loss, 1000u - delivered);

  // Determinism: a rerun with the same seed gives identical results.
  Network net2(42);
  auto& a2 = net2.add_node<SinkNode>("a");
  auto& b2 = net2.add_node<SinkNode>("b");
  net2.connect(a2.id(), b2.id(), lp);
  for (int i = 0; i < 1000; ++i) a2.transmit(0, make_packet(10));
  net2.loop().run();
  EXPECT_EQ(b2.arrivals.size(), delivered);
}

TEST(Network, TtlDropsLoopingFrames) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a.id(), b.id(), LinkParams{});
  Packet p = make_packet(10);
  p.hops = Packet::kMaxHops;
  a.transmit(0, std::move(p));
  net.loop().run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(net.stats().frames_dropped_ttl, 1u);
}

TEST(Network, PeerOfReportsTopology) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");
  auto [pa, pb] = net.connect(a.id(), b.id());
  net.connect(b.id(), c.id());
  EXPECT_EQ(net.peer_of(a.id(), pa), b.id());
  EXPECT_EQ(net.peer_of(b.id(), pb), a.id());
  EXPECT_EQ(net.peer_of(b.id(), 1), c.id());
  EXPECT_EQ(net.peer_of(a.id(), 9), kInvalidNode);
}

TEST(Network, TapSeesDeliveredFrames) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a.id(), b.id());
  int taps = 0;
  net.add_tap([&](NodeId from, NodeId to, const Packet&) {
    EXPECT_EQ(from, a.id());
    EXPECT_EQ(to, b.id());
    ++taps;
  });
  a.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(taps, 1);
}

/// Wire digest after one frame carrying `payload`, sent at `send_at`,
/// crosses a fresh two-node link: equal-length payloads sent at the same
/// time share time, endpoints and size, so only the payload fold can
/// tell them apart.
std::uint64_t one_delivery_digest(const Bytes& payload, SimTime send_at = 0) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  net.connect(a.id(), b.id());
  net.arm_wire_digest();
  net.loop().run_until(send_at);
  Packet p;
  p.data = payload;
  a.transmit(0, std::move(p));
  net.loop().run();
  EXPECT_EQ(net.wire_digest_events(), 1u);
  return net.wire_digest();
}

TEST(Network, WireDigestSeesTheArrivalTime) {
  const Bytes payload(16, 0xAB);
  EXPECT_NE(one_delivery_digest(payload, 1), one_delivery_digest(payload));
}

/// Wire digest of the facts `schedule` folds from events it schedules.
template <typename Schedule>
std::uint64_t folded_digest(Schedule&& schedule) {
  Network net(1);
  net.arm_wire_digest();
  schedule(net);
  net.loop().run();
  EXPECT_EQ(net.wire_digest_events(), 2u);
  return net.wire_digest();
}

TEST(Network, WireDigestKeepsFoldOrderWithinAnEvent) {
  // The digest is a sum, so it cannot see the order facts are added in;
  // within one event each fact's position is part of its key, so
  // swapping two facts there still changes it.
  const auto in_one_event = [](std::uint64_t first, std::uint64_t second) {
    return folded_digest([first, second](Network& net) {
      net.loop().schedule_at(5, [&net, first, second] {
        net.fold_digest(first);
        net.fold_digest(second);
      });
    });
  };
  const std::uint64_t ab = in_one_event(1, 2);
  const std::uint64_t ba = in_one_event(2, 1);
  EXPECT_NE(ab, ba);
  // The same facts in two events at different times.
  const std::uint64_t apart = folded_digest([](Network& net) {
    net.loop().schedule_at(5, [&net] { net.fold_digest(1); });
    net.loop().schedule_at(6, [&net] { net.fold_digest(2); });
  });
  EXPECT_NE(apart, ab);
  EXPECT_NE(apart, ba);
  // Each digest is a pure function of its facts and their places.
  EXPECT_EQ(in_one_event(1, 2), ab);
}

TEST(Network, WireDigestSeesEveryPayloadByte) {
  // Four whole 8-byte words plus a 5-byte tail, every byte distinct.
  Bytes base(37);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::uint64_t d0 = one_delivery_digest(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      Bytes flipped = base;
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(one_delivery_digest(flipped), d0)
          << "byte " << i << " bit " << bit;
    }
  }
  // Swapped words keep the multiset of words: an order-blind fold
  // would miss this.
  for (std::size_t w = 0; w < 3; ++w) {
    Bytes swapped = base;
    std::swap_ranges(swapped.begin() + 8 * w, swapped.begin() + 8 * w + 8,
                     swapped.begin() + 8 * (w + 1));
    EXPECT_NE(one_delivery_digest(swapped), d0) << "words " << w;
  }
  // Same whole words, tail of 0..7 bytes (zero bytes included).
  std::set<std::uint64_t> tails;
  for (std::size_t len = 32; len < 40; ++len) {
    Bytes t(base.begin(), base.begin() + 32);
    t.resize(len, 0);
    EXPECT_TRUE(tails.insert(one_delivery_digest(t)).second) << len;
  }
}

// --- SwitchNode ----------------------------------------------------------------

/// Gives every packet the same key so table actions can be tested.
std::optional<ParsedKey> const_key(const Packet&) {
  return ParsedKey{U128{0, 7}, false};
}

TEST(SwitchNode, ForwardsOnTableHit) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());  // sw port 0
  net.connect(sw.id(), h2.id());  // sw port 1
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(h2.arrivals.size(), 1u);
  EXPECT_EQ(sw.counters().forwarded, 1u);
}

TEST(SwitchNode, DefaultDropOnMiss) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().dropped, 1u);
}

TEST(SwitchNode, FloodReachesAllButIngress) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  auto& h3 = net.add_node<SinkNode>("h3");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  net.connect(sw.id(), h3.id());
  sw.set_key_extractor(
      [](const Packet&) { return ParsedKey{U128{}, true}; });

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(h2.arrivals.size(), 1u);
  EXPECT_EQ(h3.arrivals.size(), 1u);
  EXPECT_TRUE(h1.arrivals.empty());
  EXPECT_EQ(sw.counters().flooded, 1u);
}

TEST(SwitchNode, PreMatchHookConsumes) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));
  sw.set_pre_match_hook(
      [](SwitchNode&, PortId, const Packet&) { return true; });

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().consumed_by_hook, 1u);
}

TEST(SwitchNode, PuntGoesToConfiguredPort) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& ctrl = net.add_node<SinkNode>("ctrl");
  net.connect(h1.id(), sw.id());    // port 0
  net.connect(sw.id(), ctrl.id());  // port 1
  sw.set_key_extractor(const_key);
  sw.set_default_action(Action::punt());
  sw.set_punt_port(1);

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(ctrl.arrivals.size(), 1u);
  EXPECT_EQ(sw.counters().punted, 1u);
}

TEST(SwitchNode, TableExhaustionDegradesToDefaultAction) {
  // A switch whose table filled up keeps forwarding installed keys but
  // applies the default action to everything that no longer fits.
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  SwitchConfig cfg;
  cfg.table_capacity = 1;
  auto& sw = net.add_node<SwitchNode>("sw", cfg);
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  // Keys alternate per frame; only the first could be installed.
  int frame_no = 0;
  sw.set_key_extractor([&frame_no](const Packet&) {
    return ParsedKey{U128{0, static_cast<std::uint64_t>(frame_no++ % 2)},
                     false};
  });
  ASSERT_TRUE(sw.table().insert(U128{0, 0}, Action::forward_to(1)));
  EXPECT_EQ(sw.table().insert(U128{0, 1}, Action::forward_to(1)).error().code,
            Errc::capacity_exceeded);
  EXPECT_EQ(sw.table().size(), sw.table().capacity());

  for (int i = 0; i < 4; ++i) h1.transmit(0, make_packet(10));
  net.loop().run();
  // Frames 0 and 2 matched the installed key; frames 1 and 3 fell to the
  // default action (drop).
  EXPECT_EQ(h2.arrivals.size(), 2u);
  EXPECT_EQ(sw.counters().forwarded, 2u);
  EXPECT_EQ(sw.counters().dropped, 2u);
}

TEST(SwitchNode, PuntWithoutPuntPortDrops) {
  // ActionKind::punt with punt_port == kInvalidPort cannot reach a
  // control plane: the frame is accounted as dropped, never as punted.
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);
  sw.set_default_action(Action::punt());
  ASSERT_EQ(sw.config().punt_port, kInvalidPort);

  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().punted, 0u);
  EXPECT_EQ(sw.counters().dropped, 1u);
}

TEST(SwitchNode, HookConsumedFramesCountedExactly) {
  // Consumed frames increment received + consumed_by_hook and nothing
  // else; frames the hook passes through are accounted by their action.
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));
  // Consume every other frame.
  int seen = 0;
  sw.set_pre_match_hook([&seen](SwitchNode&, PortId, const Packet&) {
    return seen++ % 2 == 0;
  });

  for (int i = 0; i < 6; ++i) h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(sw.counters().received, 6u);
  EXPECT_EQ(sw.counters().consumed_by_hook, 3u);
  EXPECT_EQ(sw.counters().forwarded, 3u);
  EXPECT_EQ(sw.counters().flooded, 0u);
  EXPECT_EQ(sw.counters().dropped, 0u);
  EXPECT_EQ(h2.arrivals.size(), 3u);
}

TEST(SwitchNode, PipelineDelayApplied) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  SwitchConfig cfg;
  cfg.pipeline_delay = 7 * kMicrosecond;
  auto& sw = net.add_node<SwitchNode>("sw", cfg);
  auto& h2 = net.add_node<SinkNode>("h2");
  LinkParams lp;
  lp.latency = 1 * kMicrosecond;
  lp.bandwidth_bps = 1e12;  // negligible tx time
  net.connect(h1.id(), sw.id(), lp);
  net.connect(sw.id(), h2.id(), lp);
  sw.set_key_extractor(const_key);
  ASSERT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));

  h1.transmit(0, make_packet(10));
  net.loop().run();
  ASSERT_EQ(h2.arrivals.size(), 1u);
  // ~1us in + 7us pipeline + ~1us out (plus sub-us tx times).
  EXPECT_GE(h2.arrivals[0].at, 9 * kMicrosecond);
  EXPECT_LT(h2.arrivals[0].at, 10 * kMicrosecond);
}

// --- topologies -----------------------------------------------------------------

TEST(Topology, LineRingStarMeshPortCounts) {
  Network net(1);
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_line(net, ids);
  EXPECT_EQ(net.port_count(ids[0]), 1u);
  EXPECT_EQ(net.port_count(ids[1]), 2u);

  Network net2(1);
  ids.clear();
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net2.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_ring(net2, ids);
  for (auto id : ids) EXPECT_EQ(net2.port_count(id), 2u);

  Network net3(1);
  ids.clear();
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net3.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_full_mesh(net3, ids);
  for (auto id : ids) EXPECT_EQ(net3.port_count(id), 3u);

  Network net4(1);
  ids.clear();
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net4.add_node<SinkNode>("n" + std::to_string(i)).id());
  }
  connect_star(net4, ids[0], {ids[1], ids[2], ids[3]});
  EXPECT_EQ(net4.port_count(ids[0]), 3u);
  EXPECT_EQ(net4.port_count(ids[1]), 1u);
}

TEST(Network, RejectsDuplicateAndSelfLinks) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto& c = net.add_node<SinkNode>("c");

  auto first = net.try_connect(a.id(), b.id());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, 0u);
  EXPECT_EQ(first->second, 0u);

  // A second link between the same pair (either orientation) would
  // silently shadow the first in forwarding tables keyed by peer.
  auto dup = net.try_connect(a.id(), b.id());
  ASSERT_FALSE(dup.has_value());
  EXPECT_EQ(dup.error().code, Errc::invalid_argument);
  auto dup_rev = net.try_connect(b.id(), a.id());
  ASSERT_FALSE(dup_rev.has_value());
  EXPECT_EQ(dup_rev.error().code, Errc::invalid_argument);

  auto self = net.try_connect(c.id(), c.id());
  ASSERT_FALSE(self.has_value());
  EXPECT_EQ(self.error().code, Errc::invalid_argument);

  auto missing = net.try_connect(a.id(), 99);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, Errc::not_found);

  // The rejections left no ports behind, and distinct pairs still work.
  EXPECT_EQ(net.port_count(a.id()), 1u);
  EXPECT_EQ(net.port_count(b.id()), 1u);
  EXPECT_EQ(net.port_count(c.id()), 0u);
  EXPECT_TRUE(net.try_connect(b.id(), c.id()).has_value());
}

// --- datacenter topology generators ------------------------------------------

namespace {

/// Longest shortest-path over the fabric graph (BFS from every node).
std::uint32_t graph_diameter(const Network& net) {
  const std::size_t n = net.node_count();
  std::uint32_t diameter = 0;
  for (NodeId src = 0; src < n; ++src) {
    std::vector<std::uint32_t> dist(n, UINT32_MAX);
    std::vector<NodeId> frontier{src};
    dist[src] = 0;
    while (!frontier.empty()) {
      std::vector<NodeId> next;
      for (NodeId u : frontier) {
        for (PortId p = 0; p < net.port_count(u); ++p) {
          const NodeId v = net.peer_of(u, p);
          if (v != kInvalidNode && dist[v] == UINT32_MAX) {
            dist[v] = dist[u] + 1;
            next.push_back(v);
          }
        }
      }
      frontier = std::move(next);
    }
    for (std::uint32_t d : dist) {
      if (d == UINT32_MAX) {
        ADD_FAILURE() << "fabric is disconnected";
        return 0;
      }
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

/// Links with endpoints on different sides of `side` (true/false).
std::uint64_t crossing_links(const Network& net,
                             const std::vector<bool>& side) {
  std::uint64_t endpoints = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (PortId p = 0; p < net.port_count(u); ++p) {
      const NodeId v = net.peer_of(u, p);
      if (v != kInvalidNode && side[u] != side[v]) ++endpoints;
    }
  }
  return endpoints / 2;  // each link seen from both ends
}

std::uint64_t total_ports(const Network& net) {
  std::uint64_t ports = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) ports += net.port_count(u);
  return ports;
}

}  // namespace

TEST(Topology, LeafSpineMatchesClosedForms) {
  Network net(1);
  LeafSpineParams params;
  params.spines = 4;
  params.leaves = 6;
  params.hosts_per_leaf = 5;
  auto topo = build_leaf_spine(
      net, params,
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); },
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); });

  EXPECT_EQ(topo.hosts.size(), topo.host_count());
  EXPECT_EQ(topo.host_count(), 30u);
  for (NodeId s : topo.spines) {
    EXPECT_EQ(net.port_count(s), topo.spine_degree());
  }
  for (NodeId l : topo.leaves) {
    EXPECT_EQ(net.port_count(l), topo.leaf_degree());
  }
  for (NodeId h : topo.hosts) EXPECT_EQ(net.port_count(h), 1u);
  EXPECT_EQ(total_ports(net), 2 * topo.total_links());

  // The documented port map.
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    for (std::uint32_t s = 0; s < params.spines; ++s) {
      EXPECT_EQ(net.peer_of(topo.leaves[l], s), topo.spines[s]);
      EXPECT_EQ(net.peer_of(topo.spines[s], l), topo.leaves[l]);
    }
    for (std::uint32_t h = 0; h < params.hosts_per_leaf; ++h) {
      const NodeId host = topo.hosts[l * params.hosts_per_leaf + h];
      EXPECT_EQ(net.peer_of(topo.leaves[l], params.spines + h), host);
      EXPECT_EQ(net.peer_of(host, 0), topo.leaves[l]);
    }
  }

  EXPECT_EQ(graph_diameter(net), topo.diameter_links());

  // Canonical bisection: low leaves + their hosts + low spines vs rest.
  std::vector<bool> side(net.node_count(), false);
  for (std::uint32_t s = 0; s < params.spines / 2; ++s) {
    side[topo.spines[s]] = true;
  }
  for (std::uint32_t l = 0; l < params.leaves / 2; ++l) {
    side[topo.leaves[l]] = true;
    for (std::uint32_t h = 0; h < params.hosts_per_leaf; ++h) {
      side[topo.hosts[l * params.hosts_per_leaf + h]] = true;
    }
  }
  EXPECT_EQ(crossing_links(net, side), topo.bisection_links());
}

TEST(Topology, FatTreeMatchesClosedForms) {
  Network net(1);
  FatTreeParams params;
  params.k = 4;
  auto topo = build_fat_tree(
      net, params,
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); },
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); });
  const std::uint32_t k = params.k;
  const std::uint32_t m = k / 2;

  EXPECT_EQ(topo.hosts.size(), topo.host_count());
  EXPECT_EQ(topo.host_count(), 16u);
  EXPECT_EQ(topo.cores.size() + topo.aggs.size() + topo.edges.size(),
            topo.switch_count());
  for (NodeId sw : topo.cores) EXPECT_EQ(net.port_count(sw), k);
  for (NodeId sw : topo.aggs) EXPECT_EQ(net.port_count(sw), k);
  for (NodeId sw : topo.edges) EXPECT_EQ(net.port_count(sw), k);
  for (NodeId h : topo.hosts) EXPECT_EQ(net.port_count(h), 1u);
  EXPECT_EQ(total_ports(net), 2 * topo.total_links());

  // Port-map spot checks across all pods.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < m; ++e) {
      const NodeId edge = topo.edges[p * m + e];
      for (std::uint32_t h = 0; h < m; ++h) {
        EXPECT_EQ(net.peer_of(edge, h), topo.hosts[(p * m + e) * m + h]);
      }
      for (std::uint32_t a = 0; a < m; ++a) {
        EXPECT_EQ(net.peer_of(edge, m + a), topo.aggs[p * m + a]);
        EXPECT_EQ(net.peer_of(topo.aggs[p * m + a], e), edge);
      }
    }
    for (std::uint32_t a = 0; a < m; ++a) {
      for (std::uint32_t j = 0; j < m; ++j) {
        EXPECT_EQ(net.peer_of(topo.aggs[p * m + a], m + j),
                  topo.cores[a * m + j]);
        EXPECT_EQ(net.peer_of(topo.cores[a * m + j], p), topo.aggs[p * m + a]);
      }
    }
  }

  EXPECT_EQ(graph_diameter(net), topo.diameter_links());

  // Canonical bisection: low pods on one side, cores + high pods on the
  // other; only the low pods' agg->core uplinks cross.
  std::vector<bool> side(net.node_count(), false);
  for (std::uint32_t p = 0; p < k / 2; ++p) {
    for (std::uint32_t i = 0; i < m; ++i) {
      side[topo.aggs[p * m + i]] = true;
      side[topo.edges[p * m + i]] = true;
      for (std::uint32_t h = 0; h < m; ++h) {
        side[topo.hosts[(p * m + i) * m + h]] = true;
      }
    }
  }
  EXPECT_EQ(crossing_links(net, side), topo.bisection_links());
}

namespace {

/// One routed leaf-spine run at 1024 hosts: every switch forwards on a
/// 64-bit destination-host key using the generator's documented port
/// map; returns the full delivery trace.
struct BigFabricTrace {
  std::vector<std::tuple<std::uint32_t, SimTime, std::size_t>> arrivals;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  bool operator==(const BigFabricTrace&) const = default;
};

BigFabricTrace run_big_leaf_spine(std::uint64_t seed) {
  Network net(seed);
  LeafSpineParams params;
  params.spines = 32;
  params.leaves = 32;
  params.hosts_per_leaf = 32;
  SwitchConfig scfg;
  scfg.key_bits = 64;
  auto topo = build_leaf_spine(
      net, params,
      [&](const std::string& n) {
        return net.add_node<SwitchNode>(n, scfg).id();
      },
      [&](const std::string& n) { return net.add_node<SinkNode>(n).id(); });

  auto extractor = [](const Packet& pkt) -> std::optional<ParsedKey> {
    if (pkt.data.size() < 8) return std::nullopt;
    std::uint64_t dst = 0;
    for (int i = 0; i < 8; ++i) {
      dst |= std::uint64_t{pkt.data[static_cast<std::size_t>(i)]} << (8 * i);
    }
    return ParsedKey(U128{0, dst}, false);
  };
  // Routes follow the documented port map: spines reach host h through
  // leaf h / hosts_per_leaf; leaves deliver local hosts directly and
  // spread remote traffic over spines by destination index.
  for (std::uint32_t s = 0; s < params.spines; ++s) {
    auto& sw = static_cast<SwitchNode&>(net.node(topo.spines[s]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < topo.host_count(); ++h) {
      EXPECT_TRUE(sw.table().insert(
          U128{0, h}, Action::forward_to(static_cast<PortId>(
                          h / params.hosts_per_leaf))));
    }
  }
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    auto& sw = static_cast<SwitchNode&>(net.node(topo.leaves[l]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < topo.host_count(); ++h) {
      const auto leaf_of = static_cast<std::uint32_t>(h / params.hosts_per_leaf);
      const PortId out =
          leaf_of == l
              ? static_cast<PortId>(params.spines + h % params.hosts_per_leaf)
              : static_cast<PortId>(h % params.spines);
      EXPECT_TRUE(sw.table().insert(U128{0, h}, Action::forward_to(out)));
    }
  }

  Rng workload(seed ^ 0xBEEF);
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<std::uint32_t>(
        workload.next_below(topo.host_count()));
    std::uint64_t dst = workload.next_below(topo.host_count() - 1);
    if (dst >= src) ++dst;  // never self
    Packet pkt = make_packet(64 + workload.next_below(512));
    for (int b = 0; b < 8; ++b) {
      pkt.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(dst >> (8 * b));
    }
    static_cast<SinkNode&>(net.node(topo.hosts[src])).transmit(0, pkt);
  }
  net.loop().run();

  BigFabricTrace trace;
  for (std::uint32_t h = 0; h < topo.host_count(); ++h) {
    const auto& sink = static_cast<const SinkNode&>(net.node(topo.hosts[h]));
    for (const auto& arr : sink.arrivals) {
      trace.arrivals.emplace_back(h, arr.at, arr.pkt.data.size());
    }
  }
  trace.frames_sent = net.stats().frames_sent;
  trace.frames_delivered = net.stats().frames_delivered;
  trace.bytes_delivered = net.stats().bytes_delivered;
  return trace;
}

}  // namespace

TEST(Topology, LeafSpine1024HostsSameSeedByteIdentical) {
  const BigFabricTrace first = run_big_leaf_spine(42);
  const BigFabricTrace second = run_big_leaf_spine(42);
  EXPECT_GT(first.frames_delivered, 0u);
  EXPECT_EQ(first.arrivals.size(), 400u);  // routed fabric: no frame lost
  EXPECT_TRUE(first == second);
}

// Property: simulator determinism — same seed, same trace.
class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDeterminism, IdenticalTraces) {
  auto run = [&](std::uint64_t seed) {
    Network net(seed);
    auto& a = net.add_node<SinkNode>("a");
    auto& b = net.add_node<SinkNode>("b");
    LinkParams lp;
    lp.loss_rate = 0.2;
    lp.latency = 3 * kMicrosecond;
    net.connect(a.id(), b.id(), lp);
    Rng workload(seed ^ 0x777);
    for (int i = 0; i < 200; ++i) {
      a.transmit(0, make_packet(workload.next_below(500)));
    }
    net.loop().run();
    std::vector<std::pair<SimTime, std::size_t>> trace;
    for (const auto& arr : b.arrivals) {
      trace.emplace_back(arr.at, arr.pkt.data.size());
    }
    return trace;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism,
                         ::testing::Values(1, 7, 99, 12345));


// --- link failure injection -----------------------------------------------------

TEST(LinkFailure, DownLinkDropsAndCounts) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto [pa, pb] = net.connect(a.id(), b.id());
  (void)pb;
  net.set_link_up(a.id(), pa, false);
  EXPECT_FALSE(net.link_up(a.id(), pa));
  a.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(net.stats().frames_dropped_down, 1u);
}

TEST(LinkFailure, CutAffectsBothDirections) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto [pa, pb] = net.connect(a.id(), b.id());
  net.set_link_up(a.id(), pa, false);
  b.transmit(pb, make_packet(10));  // reverse direction also dead
  net.loop().run();
  EXPECT_TRUE(a.arrivals.empty());
  EXPECT_EQ(net.stats().frames_dropped_down, 1u);
}

TEST(LinkFailure, RestoreResumesDelivery) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  auto [pa, pb] = net.connect(a.id(), b.id());
  (void)pb;
  net.set_link_up(a.id(), pa, false);
  a.transmit(0, make_packet(10));
  net.loop().run();
  net.set_link_up(a.id(), pa, true);
  a.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(LinkFailure, InFlightFramesStillArrive) {
  Network net(1);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.latency = 100 * kMicrosecond;
  auto [pa, pb] = net.connect(a.id(), b.id(), lp);
  (void)pb;
  a.transmit(0, make_packet(10));
  // Cut the link while the frame is mid-flight: it left before the cut.
  net.loop().schedule_at(10 * kMicrosecond,
                         [&] { net.set_link_up(a.id(), pa, false); });
  net.loop().run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

// --- two-stage (fallback) matching ------------------------------------------------

TEST(SwitchNode, FallbackKeyUsedOnExactMiss) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor([](const Packet&) {
    ParsedKey k{U128{0, 1}, false};
    k.fallback = U128{0, 2};
    return std::optional<ParsedKey>(k);
  });
  // Only the AGGREGATE rule exists.
  ASSERT_TRUE(sw.table().insert(U128{0, 2}, Action::forward_to(1)));
  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_EQ(h2.arrivals.size(), 1u);
}

TEST(SwitchNode, ExactRuleShadowsFallback) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  auto& h3 = net.add_node<SinkNode>("h3");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());  // port 1
  net.connect(sw.id(), h3.id());  // port 2
  sw.set_key_extractor([](const Packet&) {
    ParsedKey k{U128{0, 1}, false};
    k.fallback = U128{0, 2};
    return std::optional<ParsedKey>(k);
  });
  ASSERT_TRUE(sw.table().insert(U128{0, 1}, Action::forward_to(2)));  // exact
  ASSERT_TRUE(sw.table().insert(U128{0, 2}, Action::forward_to(1)));  // agg
  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(h3.arrivals.size(), 1u);  // exact rule won
}

TEST(SwitchNode, FallbackMissFallsToDefault) {
  Network net(1);
  auto& h1 = net.add_node<SinkNode>("h1");
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& h2 = net.add_node<SinkNode>("h2");
  net.connect(h1.id(), sw.id());
  net.connect(sw.id(), h2.id());
  sw.set_key_extractor([](const Packet&) {
    ParsedKey k{U128{0, 1}, false};
    k.fallback = U128{0, 2};
    return std::optional<ParsedKey>(k);
  });
  h1.transmit(0, make_packet(10));
  net.loop().run();
  EXPECT_TRUE(h2.arrivals.empty());
  EXPECT_EQ(sw.counters().dropped, 1u);
}

// --- fused receive residence ------------------------------------------------
//
// A switch's pipeline delay is folded into its delivery event: the event
// runs at arrival + pipeline_delay.  Everything the old arrival event
// decided must still be decided as of the arrival.

/// h1 -> sw -> h2 with sub-ns serialization and 500 ns links.
struct ResidenceLine {
  Network net{1};
  SinkNode& h1 = net.add_node<SinkNode>("h1");
  SwitchNode& sw;
  SinkNode& h2 = net.add_node<SinkNode>("h2");

  explicit ResidenceLine(SwitchConfig cfg = {})
      : sw(net.add_node<SwitchNode>("sw", cfg)) {
    LinkParams lp;
    lp.latency = 500;
    lp.bandwidth_bps = 1e12;
    net.connect(h1.id(), sw.id(), lp);  // sw port 0
    net.connect(sw.id(), h2.id(), lp);  // sw port 1
    sw.set_key_extractor(const_key);
    EXPECT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(1)));
  }
};

TEST(SwitchNode, AdmissionDecidesAtArrivalNotPipelineEnd) {
  SwitchConfig cfg;
  cfg.admission.enabled = true;
  // 1 B/ns: the pipeline's 1 us would refill 1000 bytes.
  cfg.admission.tenant_rates[1] = TenantRate{1e9, 100'000};
  ResidenceLine l(cfg);
  // Empty tenant 1's bucket at t = 0.
  ASSERT_TRUE(l.sw.admission()->admit(1, 100'000, 0));
  Packet p = make_packet(1000);  // 1024 wire bytes, 8 ns to serialize
  p.tenant = 1;
  l.h1.transmit(0, std::move(p));
  l.net.loop().run();
  // Arrival at 508 ns holds 508 tokens: too few.  Judged at the end of
  // the pipeline (1508 tokens) the frame would have been admitted.
  EXPECT_EQ(l.sw.counters().dropped_admission, 1u);
  EXPECT_EQ(l.sw.admission()->dropped_for(1), 1u);
  EXPECT_TRUE(l.h2.arrivals.empty());
}

TEST(SwitchNode, TapAndPipelineSeeArrivalAndResidenceEnd) {
  ResidenceLine l;
  std::vector<SimTime> tapped;
  l.net.add_tap([&](NodeId, NodeId to, const Packet&) {
    if (to == l.sw.id()) tapped.push_back(l.net.now());
  });
  std::vector<SimTime> piped;
  l.sw.set_pre_match_hook([&](SwitchNode& sw, PortId, const Packet&) {
    piped.push_back(sw.event_loop().now());
    return false;
  });
  l.h1.transmit(0, make_packet(10));
  l.net.loop().run();
  ASSERT_EQ(tapped.size(), 1u);
  ASSERT_EQ(piped.size(), 1u);
  EXPECT_EQ(tapped[0], 501);  // 1 ns serialization + 500 ns latency
  EXPECT_EQ(piped[0], tapped[0] + l.sw.config().pipeline_delay);
}

TEST(SwitchNode, CrashInsideResidenceDropsAtEgressAsBefore) {
  constexpr SimTime kArrive = 501;
  // Down before the frame arrives: dropped on arrival.
  {
    ResidenceLine l;
    l.net.schedule_crash(l.sw.id(), kArrive);
    l.h1.transmit(0, make_packet(10));
    l.net.loop().run();
    EXPECT_EQ(l.net.stats().frames_dropped_dead, 1u);
    EXPECT_EQ(l.net.stats().frames_delivered, 0u);
    EXPECT_EQ(l.sw.counters().received, 0u);
  }
  // Crashes during the pipeline: the frame was received (and counted
  // delivered) at arrival; the pipeline still runs and its forward dies
  // at the dead switch's NIC.
  for (const SimDuration into : {SimDuration{1}, SimDuration{500},
                                 kMicrosecond}) {
    ResidenceLine l;
    l.net.schedule_crash(l.sw.id(), kArrive + into);
    l.h1.transmit(0, make_packet(10));
    l.net.loop().run();
    EXPECT_EQ(l.net.stats().frames_delivered, 1u) << into;
    EXPECT_EQ(l.net.stats().frames_dropped_dead, 1u) << into;
    EXPECT_EQ(l.sw.counters().received, 1u) << into;
    EXPECT_EQ(l.sw.counters().forwarded, 1u) << into;
    EXPECT_TRUE(l.h2.arrivals.empty()) << into;
  }
  // Down at arrival, revived inside the residence: still a dead drop.
  {
    ResidenceLine l;
    l.net.schedule_crash(l.sw.id(), kArrive - 100);
    l.net.schedule_revive(l.sw.id(), kArrive + 500);
    l.h1.transmit(0, make_packet(10));
    l.net.loop().run();
    EXPECT_EQ(l.net.stats().frames_dropped_dead, 1u);
    EXPECT_EQ(l.net.stats().frames_delivered, 0u);
    EXPECT_EQ(l.sw.counters().received, 0u);
    EXPECT_TRUE(l.h2.arrivals.empty());
  }
}

/// Two senders into one switch; the pipeline hook records which ingress
/// port ran first.
struct TwoIntoOne {
  Network net;
  SinkNode& a;
  SinkNode& b;
  SwitchNode& sw;
  SinkNode& c;
  std::vector<PortId> order;

  TwoIntoOne(std::uint64_t seed, const LinkParams& lp)
      : net(seed),
        a(net.add_node<SinkNode>("a")),
        b(net.add_node<SinkNode>("b")),
        sw(net.add_node<SwitchNode>("sw")),
        c(net.add_node<SinkNode>("c")) {
    net.connect(a.id(), sw.id(), lp);  // sw port 0
    net.connect(b.id(), sw.id(), lp);  // sw port 1
    net.connect(sw.id(), c.id(), lp);  // sw port 2
    sw.set_key_extractor(const_key);
    EXPECT_TRUE(sw.table().insert(U128{0, 7}, Action::forward_to(2)));
    sw.set_pre_match_hook([this](SwitchNode&, PortId in, const Packet&) {
      order.push_back(in);
      return false;
    });
  }
};

TEST(Network, SameNanosecondArrivalsKeepTheirOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    LinkParams lp;
    lp.latency = 1 + static_cast<SimDuration>(rng.next_below(5000));
    const std::size_t size = 1 + rng.next_below(1500);
    // Sent from outside the loop: b's frame is stamped first.
    {
      TwoIntoOne t(seed, lp);
      t.b.transmit(0, make_packet(size));
      t.a.transmit(0, make_packet(size));
      t.net.loop().run();
      EXPECT_EQ(t.order, (std::vector<PortId>{1, 0})) << seed;
      ASSERT_EQ(t.c.arrivals.size(), 2u);
    }
    // Sent by the nodes themselves at the same instant: each sender's
    // own seq counter stamps, and the lower source id breaks the tie.
    {
      TwoIntoOne t(seed, lp);
      const SimTime at = 100 + static_cast<SimTime>(rng.next_below(100));
      t.net.schedule_on(t.b.id(), at, [&t, size] {
        t.b.transmit(0, make_packet(size));
      });
      t.net.schedule_on(t.a.id(), at, [&t, size] {
        t.a.transmit(0, make_packet(size));
      });
      t.net.loop().run();
      EXPECT_EQ(t.order, (std::vector<PortId>{0, 1})) << seed;
      ASSERT_EQ(t.c.arrivals.size(), 2u);
      // Both frames left the switch on one port: the first through the
      // pipeline serialized first.
      EXPECT_LT(t.c.arrivals[0].at, t.c.arrivals[1].at);
    }
  }
}

}  // namespace
}  // namespace objrpc
