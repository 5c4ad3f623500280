// Sharded event-loop tests (DESIGN.md §16): the parallel runner must
// produce the SAME wire bytes as the sequential loop — not statistically
// close, byte-identical — across shard counts, seeds, loss, and crash
// schedules.  Plus the failure mode: the lookahead-violation abort (an
// unsound horizon must die loudly, not corrupt the digest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "sim/switch_node.hpp"
#include "sim/topology.hpp"
#include "core/cluster.hpp"

namespace objrpc {
namespace {

class SinkHost : public NetworkNode {
 public:
  SinkHost(Network& net, NodeId id, std::string name)
      : NetworkNode(net, id, std::move(name)) {}
  void on_packet(PortId, Packet pkt) override {
    ++delivered;
    bytes += pkt.data.size();
  }
  void transmit(PortId port, Packet pkt) { send(port, std::move(pkt)); }
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
};

/// Exact-match destination routing over a small leaf-spine (8 leaves so
/// an 8-shard plan gets a non-trivial partition).
struct TestFabric {
  Network net;
  LeafSpineTopology topo;
};

struct FabricOpts {
  double loss_rate = 0.0;
  bool crash_spine = false;
  SimDuration horizon_override = 0;
  bool force_serial_env = false;
  bool arm_tracer = false;
  bool attach_tap = false;         // order-sensitive tap digest
  bool snapshot_each_epoch = false;
  bool one_leaf = false;           // traffic stays behind leaf 0 (shard 0)
  // Left to itself the runner sends a window to the workers only when
  // several shards have work and the last such window was big enough
  // (DESIGN.md §16).  The tests below want every window on the
  // concurrent path, so they force it unless they test that choice.
  bool force_workers = true;
  SimDuration fabric_latency = 0;  // 0 = default leaf<->spine latency
};

constexpr std::uint32_t kPackets = 200;

void build_test_fabric(TestFabric& f, const FabricOpts& o) {
  LeafSpineParams params;
  params.spines = 4;
  params.leaves = 8;
  params.hosts_per_leaf = 4;
  params.fabric_link.loss_rate = o.loss_rate;
  params.host_link.loss_rate = o.loss_rate;
  if (o.fabric_latency != 0) params.fabric_link.latency = o.fabric_latency;
  SwitchConfig scfg;
  scfg.key_bits = 64;
  f.topo = build_leaf_spine(
      f.net, params,
      [&](const std::string& n) {
        return f.net.add_node<SwitchNode>(n, scfg).id();
      },
      [&](const std::string& n) { return f.net.add_node<SinkHost>(n).id(); });
  auto extractor = [](const Packet& pkt) -> std::optional<ParsedKey> {
    if (pkt.data.size() < 8) return std::nullopt;
    std::uint64_t dst = 0;
    for (int i = 0; i < 8; ++i) {
      dst |= std::uint64_t{pkt.data[static_cast<std::size_t>(i)]} << (8 * i);
    }
    return ParsedKey(U128{0, dst}, false);
  };
  for (std::uint32_t s = 0; s < params.spines; ++s) {
    auto& sw = static_cast<SwitchNode&>(f.net.node(f.topo.spines[s]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < f.topo.host_count(); ++h) {
      sw.table().insert(U128{0, h}, Action::forward_to(static_cast<PortId>(
                                        h / params.hosts_per_leaf)));
    }
  }
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    auto& sw = static_cast<SwitchNode&>(f.net.node(f.topo.leaves[l]));
    sw.set_key_extractor(extractor);
    for (std::uint64_t h = 0; h < f.topo.host_count(); ++h) {
      const auto leaf_of =
          static_cast<std::uint32_t>(h / params.hosts_per_leaf);
      const PortId out =
          leaf_of == l
              ? static_cast<PortId>(params.spines + h % params.hosts_per_leaf)
              : static_cast<PortId>(h % params.spines);
      sw.table().insert(U128{0, h}, Action::forward_to(out));
    }
  }
}

struct RunResult {
  std::uint64_t digest = 0;
  std::uint64_t digest_events = 0;
  std::uint64_t delivered = 0;
  std::uint32_t shards = 0;
  bool has_runner = false;  // a ShardRunner, and its worker threads, existed
  /// The run went through the parallel runner: it existed and, where
  /// workers were forced, ran at least one epoch on them.
  bool concurrent = false;
  std::uint64_t epochs = 0;
  std::uint64_t coordinator_windows = 0;
  std::uint64_t cross_frames = 0;
  std::uint64_t tap_digest = 0;
  std::uint64_t tap_events = 0;
  std::string trace_json;
  std::vector<std::uint64_t> epoch_frames;  // barrier-hook snapshots
  bool operator==(const RunResult&) const = default;
};

/// Order-sensitive fold over a tap observation — if replay order differs
/// from the serial driver's delivery order by even one swap, the digests
/// diverge.
void fold_tap(std::uint64_t& d, NodeId from, NodeId to, const Packet& pkt) {
  auto mix = [&d](std::uint64_t v) {
    d ^= v + 0x9E3779B97F4A7C15ULL + (d << 6) + (d >> 2);
  };
  mix(from);
  mix(to);
  mix(pkt.data.size());
  for (std::uint8_t b : pkt.data) mix(b);
}

/// The open-loop workload: kPackets frames between random hosts (or
/// only the hosts behind leaf 0), each injected on its source host.
void inject_packets(TestFabric& f, std::uint64_t seed, bool one_leaf) {
  Rng workload(seed ^ 0xBEEF);
  const std::uint64_t n =
      one_leaf ? f.topo.params.hosts_per_leaf : f.topo.host_count();
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    const auto src = static_cast<std::uint32_t>(workload.next_below(n));
    std::uint64_t dst = workload.next_below(n - 1);
    if (dst >= src) ++dst;
    Packet pkt;
    pkt.data.assign(64 + workload.next_below(600), 0x5A);
    for (int b = 0; b < 8; ++b) {
      pkt.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(dst >> (8 * b));
    }
    const SimTime at = (i / 4) * kMicrosecond + workload.next_below(999);
    auto* host = static_cast<SinkHost*>(&f.net.node(f.topo.hosts[src]));
    f.net.schedule_on(f.topo.hosts[src], at,
                      [host, pkt = std::move(pkt)]() mutable {
                        host->transmit(0, std::move(pkt));
                      });
  }
}

RunResult run_fabric(std::uint64_t seed, std::uint32_t shards,
                     const FabricOpts& o = {}) {
  if (o.force_serial_env) setenv("OBJRPC_SHARDS_SERIAL", "1", 1);
  RunResult r;
  TestFabric f{Network(seed), {}};
  build_test_fabric(f, o);
  if (o.arm_tracer) f.net.tracer().arm();
  if (o.attach_tap) {
    f.net.add_tap([&r](NodeId from, NodeId to, const Packet& pkt) {
      fold_tap(r.tap_digest, from, to, pkt);
      ++r.tap_events;
    });
  }
  if (shards > 1) {
    f.net.enable_sharding(ShardPlan::leaf_spine(f.net, f.topo, shards));
  }
  if (ShardRunner* run = f.net.runner()) {
    if (o.horizon_override != 0) {
      run->set_horizon_override_for_test(o.horizon_override);
    }
    if (o.force_workers) run->force_worker_epochs_for_test();
  }
  if (o.snapshot_each_epoch) {
    // Mid-run metrics reads at every epoch barrier: the SHARD_LANED
    // counters must merge coherently while workers are parked.
    f.net.set_barrier_hook([&r, &f] {
      const auto snap = f.net.metrics().snapshot();
      for (const auto& [name, v] : snap.counters) {
        if (name == "net/frames_delivered") r.epoch_frames.push_back(v);
      }
    });
  }
  f.net.arm_wire_digest();
  if (o.crash_spine) {
    f.net.schedule_crash(f.topo.spines[1], 40 * kMicrosecond);
    f.net.schedule_revive(f.topo.spines[1], 140 * kMicrosecond);
  }
  inject_packets(f, seed, o.one_leaf);
  f.net.loop().run();
  r.digest = f.net.wire_digest();
  r.digest_events = f.net.wire_digest_events();
  r.shards = f.net.shard_count();
  for (NodeId h : f.topo.hosts) {
    r.delivered += static_cast<const SinkHost&>(f.net.node(h)).delivered;
  }
  if (const ShardRunner* runner = f.net.runner()) {
    r.has_runner = true;
    r.epochs = runner->epochs();
    r.coordinator_windows = runner->coordinator_windows();
    r.cross_frames = runner->cross_frames();
    r.concurrent = !o.force_workers || r.epochs > 0;
  }
  if (o.arm_tracer) r.trace_json = f.net.tracer().chrome_trace_json();
  if (o.force_serial_env) unsetenv("OBJRPC_SHARDS_SERIAL");
  return r;
}

// --- digest identity --------------------------------------------------------

class ShardDigest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDigest, CleanRunByteIdentical) {
  const RunResult base = run_fabric(GetParam(), 1);
  EXPECT_EQ(base.delivered, kPackets);
  EXPECT_GT(base.digest_events, 0u);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards);
    EXPECT_EQ(p.shards, shards);
    EXPECT_EQ(p.digest, base.digest) << shards << " shards, seed "
                                     << GetParam();
    EXPECT_EQ(p.digest_events, base.digest_events);
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

TEST_P(ShardDigest, LossyRunByteIdentical) {
  FabricOpts lossy;
  lossy.loss_rate = 0.1;
  const RunResult base = run_fabric(GetParam(), 1, lossy);
  EXPECT_LT(base.delivered, kPackets);  // loss must actually bite
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards, lossy);
    EXPECT_EQ(p.digest, base.digest) << shards << " shards, seed "
                                     << GetParam();
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

TEST_P(ShardDigest, CrashScheduleByteIdentical) {
  FabricOpts chaos;
  chaos.loss_rate = 0.05;
  chaos.crash_spine = true;
  const RunResult base = run_fabric(GetParam(), 1, chaos);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards, chaos);
    EXPECT_EQ(p.digest, base.digest) << shards << " shards, seed "
                                     << GetParam();
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDigest,
                         ::testing::Values(3, 17, 1234));

TEST(ShardRunnerTest, SerialKillSwitchStillByteIdentical) {
  // OBJRPC_SHARDS_SERIAL=1 keeps the partition but builds no runner (so
  // no worker thread): the loop's key-merge runs every window — same
  // keys, same digest.  It is the one serial switch, armed or not: with
  // tracer and tap attached the observers run inline and must see
  // exactly the 1-shard stream.
  const RunResult base = run_fabric(7, 1);
  FabricOpts serial;
  serial.force_serial_env = true;
  const RunResult p = run_fabric(7, 4, serial);
  EXPECT_EQ(p.shards, 4u);
  EXPECT_FALSE(p.has_runner);
  EXPECT_FALSE(p.concurrent);
  EXPECT_EQ(p.digest, base.digest);

  FabricOpts armed;
  armed.arm_tracer = true;
  armed.attach_tap = true;
  const RunResult armed_base = run_fabric(7, 1, armed);
  ASSERT_GT(armed_base.tap_events, 0u);
  ASSERT_FALSE(armed_base.trace_json.empty());
  FabricOpts armed_serial = armed;
  armed_serial.force_serial_env = true;
  const RunResult q = run_fabric(7, 4, armed_serial);
  EXPECT_EQ(q.shards, 4u);
  EXPECT_FALSE(q.has_runner);
  EXPECT_FALSE(q.concurrent);
  EXPECT_EQ(q.epochs, 0u);
  EXPECT_EQ(q.digest, armed_base.digest);
  EXPECT_EQ(q.tap_events, armed_base.tap_events);
  EXPECT_EQ(q.tap_digest, armed_base.tap_digest);
  EXPECT_EQ(q.trace_json, armed_base.trace_json);
}

TEST(ShardRunnerTest, ControlEventAddedAtABarrierRunsAtItsTime) {
  // A barrier hook may schedule on the control lane.  The run loop reads
  // the control wheel again after every window, so the event runs at
  // exactly its time, before any shard wheel's clock passes it.
  TestFabric f{Network(7), {}};
  build_test_fabric(f, FabricOpts{});
  f.net.enable_sharding(ShardPlan::leaf_spine(f.net, f.topo, 4));
  ShardRunner* runner = f.net.runner();
  ASSERT_NE(runner, nullptr);
  runner->force_worker_epochs_for_test();
  EventLoop& loop = f.net.loop();
  SimTime due = kNoEventTime;
  SimTime ran_at = kNoEventTime;
  SimTime latest_shard_clock = kNoEventTime;
  f.net.set_barrier_hook([&] {
    if (due != kNoEventTime || loop.now() < 20 * kMicrosecond) return;
    due = loop.now() + 1;
    loop.schedule_at(due, [&] {
      ran_at = loop.now();
      for (std::uint32_t i = 0; i < loop.shard_count(); ++i) {
        latest_shard_clock =
            std::max(latest_shard_clock, loop.wheel(i).now());
      }
    });
  });
  inject_packets(f, 7, /*one_leaf=*/false);
  loop.run();
  EXPECT_GT(runner->epochs(), 0u);
  ASSERT_NE(due, kNoEventTime) << "no barrier after 20 us";
  EXPECT_EQ(ran_at, due);
  EXPECT_LE(latest_shard_clock, due);
}

TEST(ShardRunnerTest, OneShardWindowsRunOnTheCoordinator) {
  // Traffic confined to leaf 0 keeps every window on one shard: the
  // coordinator runs each of them itself, no worker ever wakes, and the
  // observers (run inline instead of journaled) see the serial stream.
  FabricOpts local;
  local.one_leaf = true;
  local.force_workers = false;
  local.arm_tracer = true;
  local.attach_tap = true;
  const RunResult base = run_fabric(5, 1, local);
  EXPECT_EQ(base.delivered, kPackets);
  const RunResult p = run_fabric(5, 4, local);
  EXPECT_TRUE(p.concurrent);
  EXPECT_EQ(p.epochs, 0u);
  EXPECT_GT(p.coordinator_windows, 0u);
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.tap_digest, base.tap_digest);
  EXPECT_EQ(p.trace_json, base.trace_json);
  EXPECT_EQ(p.delivered, base.delivered);
}

TEST(ShardRunnerTest, WorkersWakeOnlyForWindowsWithEnoughWork) {
  // Left to choose, the runner keeps this workload on the coordinator
  // when 1 us leaf<->spine links cut it into 1 us windows of a few
  // events each: only the first multi-shard window, which has no
  // predecessor to judge by, wakes the workers.  At the default 5 us
  // the windows carry five times the work and the workers run all but
  // the sparse tail.  Either way the run is the serial one.
  FabricOpts choose;
  choose.force_workers = false;
  choose.arm_tracer = true;
  choose.attach_tap = true;
  choose.fabric_latency = 1 * kMicrosecond;
  const RunResult base = run_fabric(7, 1, choose);
  const RunResult small = run_fabric(7, 4, choose);
  EXPECT_TRUE(small.concurrent);
  EXPECT_EQ(small.epochs, 1u);
  EXPECT_GT(small.coordinator_windows, 10u);
  EXPECT_EQ(small.digest, base.digest);
  EXPECT_EQ(small.tap_digest, base.tap_digest);
  EXPECT_EQ(small.trace_json, base.trace_json);

  choose.fabric_latency = 0;
  const RunResult wide_base = run_fabric(7, 1, choose);
  const RunResult wide = run_fabric(7, 4, choose);
  EXPECT_GT(wide.epochs, 0u);
  EXPECT_GT(wide.coordinator_windows, 0u);
  EXPECT_EQ(wide.digest, wide_base.digest);
  EXPECT_EQ(wide.tap_digest, wide_base.tap_digest);
  EXPECT_EQ(wide.trace_json, wide_base.trace_json);
  EXPECT_EQ(wide.delivered, kPackets);
}

// --- armed observers stay concurrent (DESIGN.md §17) ------------------------

/// Tracer + tap armed no longer force the serial driver: the per-shard
/// observer journal defers every observation and replays it at the
/// barrier in canonical key order.  The trace file, the tap's
/// order-sensitive fold, and the wire digest must all be byte-identical
/// to the serial armed run — while the run really executes concurrently.
class ShardArmed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardArmed, TracerAndTapByteIdenticalWhileConcurrent) {
  FabricOpts armed;
  armed.arm_tracer = true;
  armed.attach_tap = true;
  const RunResult base = run_fabric(GetParam(), 1, armed);
  EXPECT_FALSE(base.concurrent);
  EXPECT_GT(base.tap_events, 0u);
  ASSERT_FALSE(base.trace_json.empty());
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const RunResult p = run_fabric(GetParam(), shards, armed);
    EXPECT_EQ(p.shards, shards);
    // The whole point: observers armed AND the parallel driver engaged
    // for every window of the run (~15).
    EXPECT_TRUE(p.concurrent) << shards << " shards";
    EXPECT_GT(p.epochs, 10u) << shards << " shards";
    EXPECT_EQ(p.digest, base.digest) << shards << " shards";
    EXPECT_EQ(p.tap_events, base.tap_events) << shards << " shards";
    EXPECT_EQ(p.tap_digest, base.tap_digest) << shards << " shards";
    EXPECT_EQ(p.trace_json, base.trace_json) << shards << " shards";
    EXPECT_EQ(p.delivered, base.delivered);
  }
}

TEST_P(ShardArmed, TracerOnlyByteIdentical) {
  FabricOpts armed;
  armed.arm_tracer = true;
  const RunResult base = run_fabric(GetParam(), 1, armed);
  for (std::uint32_t shards : {2u, 4u}) {
    const RunResult p = run_fabric(GetParam(), shards, armed);
    EXPECT_TRUE(p.concurrent);
    EXPECT_EQ(p.digest, base.digest);
    EXPECT_EQ(p.trace_json, base.trace_json) << shards << " shards";
  }
}

TEST_P(ShardArmed, TapOnlyByteIdentical) {
  FabricOpts armed;
  armed.attach_tap = true;
  const RunResult base = run_fabric(GetParam(), 1, armed);
  for (std::uint32_t shards : {2u, 4u}) {
    const RunResult p = run_fabric(GetParam(), shards, armed);
    EXPECT_TRUE(p.concurrent);
    EXPECT_EQ(p.digest, base.digest);
    EXPECT_EQ(p.tap_digest, base.tap_digest) << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardArmed, ::testing::Values(3, 17, 1234));

TEST(ShardArmedTest, LossAndCrashWithObserversByteIdentical) {
  FabricOpts chaos;
  chaos.loss_rate = 0.05;
  chaos.crash_spine = true;
  chaos.arm_tracer = true;
  chaos.attach_tap = true;
  const RunResult base = run_fabric(17, 1, chaos);
  const RunResult p = run_fabric(17, 4, chaos);
  EXPECT_TRUE(p.concurrent);
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.tap_digest, base.tap_digest);
  EXPECT_EQ(p.trace_json, base.trace_json);
}

/// More cross-shard frames than 4 shard lanes x epochs means, by
/// pigeonhole, some lane parked several handoffs in one epoch: the
/// barrier must land a deep handoff vector in key order.
bool some_lane_parked_several(const RunResult& r) {
  return r.cross_frames > r.epochs * 4;
}

TEST(ShardArmedTest, DeepHandoffLanesWithObserversByteIdentical) {
  FabricOpts armed;
  armed.arm_tracer = true;
  armed.attach_tap = true;
  const RunResult base = run_fabric(11, 1, armed);
  const RunResult p = run_fabric(11, 4, armed);
  EXPECT_TRUE(some_lane_parked_several(p))
      << p.cross_frames << " cross frames in " << p.epochs << " epochs";
  EXPECT_TRUE(p.concurrent);
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.tap_digest, base.tap_digest);
  EXPECT_EQ(p.trace_json, base.trace_json);
}

// --- mid-run metrics snapshots ----------------------------------------------

TEST(ShardMetrics, SnapshotAtEveryEpochBarrierIsCoherent) {
  // snapshot() during a 4-shard run: taken at the barrier (workers
  // parked), SHARD_LANED counters merged.  frames_delivered must be
  // monotone across epochs and land exactly on the serial total.
  const RunResult base = run_fabric(13, 1);
  FabricOpts snap;
  snap.snapshot_each_epoch = true;
  const RunResult p = run_fabric(13, 4, snap);
  EXPECT_TRUE(p.concurrent);
  EXPECT_GT(p.epochs, 10u);
  EXPECT_GT(p.epoch_frames.size(), 4u) << "hook saw too few epochs";
  std::uint64_t prev = 0;
  for (std::uint64_t v : p.epoch_frames) {
    EXPECT_GE(v, prev) << "frames_delivered went backwards mid-run";
    prev = v;
  }
  EXPECT_GT(prev, 0u);
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.delivered, base.delivered);
}

// --- cross-shard handoff ----------------------------------------------------

TEST(ShardRunnerTest, DeepHandoffLanesWithoutDivergence) {
  const RunResult base = run_fabric(11, 1);
  const RunResult p = run_fabric(11, 4);
  EXPECT_TRUE(some_lane_parked_several(p))
      << p.cross_frames << " cross frames in " << p.epochs << " epochs";
  EXPECT_EQ(p.digest, base.digest);
  EXPECT_EQ(p.delivered, base.delivered);
}

// --- lookahead soundness ----------------------------------------------------

/// A horizon far past the real lookahead is UNSOUND: shards run ahead
/// of the frames other shards are about to hand them.  Strict mode must
/// catch the first behind-clock arrival and abort.
void run_with_unsound_horizon() {
  TestFabric f{Network(5), {}};
  FabricOpts o;
  build_test_fabric(f, o);
  f.net.enable_sharding(ShardPlan::leaf_spine(f.net, f.topo, 4));
  ShardRunner* runner = f.net.runner();
  ASSERT_NE(runner, nullptr);
  runner->set_horizon_override_for_test(5 * kMillisecond);
  runner->force_worker_epochs_for_test();
  f.net.loop().set_strict_past_schedules(true);
  f.net.arm_wire_digest();
  Rng workload(5 ^ 0xBEEF);
  const std::uint64_t n = f.topo.host_count();
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    const auto src = static_cast<std::uint32_t>(workload.next_below(n));
    std::uint64_t dst = workload.next_below(n - 1);
    if (dst >= src) ++dst;
    Packet pkt;
    pkt.data.assign(64, 0x5A);
    for (int b = 0; b < 8; ++b) {
      pkt.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(dst >> (8 * b));
    }
    auto* host = static_cast<SinkHost*>(&f.net.node(f.topo.hosts[src]));
    f.net.schedule_on(f.topo.hosts[src],
                      static_cast<SimTime>(i) * kMicrosecond,
                      [host, pkt = std::move(pkt)]() mutable {
                        host->transmit(0, std::move(pkt));
                      });
  }
  f.net.loop().run();
}

TEST(ShardDeathTest, OversizedHorizonAbortsUnderStrict) {
  // The runner spawns worker threads; fork-style death tests need the
  // threadsafe re-exec mode to be reliable.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_with_unsound_horizon(), "lookahead violation");
}

// --- cluster-level opt-in (OBJRPC_SHARDS) -----------------------------------

struct ClusterRun {
  std::uint64_t wire_digest = 0;
  std::uint64_t checker_events = 0;
  std::string trace_json;
  bool concurrent = false;
};

/// Full-stack workload (create / write / fetch / move over the RPC
/// layers).  With `armed`, the invariant checker rides its taps and the
/// tracer records — since §17 neither forces the serial driver.
ClusterRun run_cluster_workload(const char* shards_env, bool armed = false) {
  if (shards_env != nullptr) {
    setenv("OBJRPC_SHARDS", shards_env, 1);
  } else {
    unsetenv("OBJRPC_SHARDS");
  }
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;
  cfg.fabric.seed = 21;
  // Checker taps + tracer no longer serialize the run (DESIGN.md §17):
  // their observations defer into the shard journal and replay at the
  // barrier in canonical order.
  cfg.check_invariants = armed ? 1 : 0;
  auto cluster = Cluster::build(cfg);
  ShardRunner* runner = cluster->fabric().network().runner();
  if (runner != nullptr) runner->force_worker_epochs_for_test();
  if (armed) cluster->tracer().arm();
  cluster->fabric().network().arm_wire_digest();
  ClusterRun out;
  auto obj = cluster->create_object(1, 4096);
  EXPECT_TRUE(obj.has_value());
  const ObjectId id = (*obj)->id();
  auto off = (*obj)->alloc(8);
  EXPECT_TRUE(off.has_value() && (*obj)->write_u64(*off, 100));
  cluster->settle();
  bool fetched = false;
  cluster->fetcher(0).fetch(id, [&](Status s) { fetched = s.is_ok(); });
  cluster->settle();
  EXPECT_TRUE(fetched);
  bool moved = false;
  cluster->move_object(id, 1, 2, [&](Status s) { moved = s.is_ok(); });
  cluster->settle();
  EXPECT_TRUE(moved);
  out.wire_digest = cluster->fabric().network().wire_digest();
  out.concurrent = runner != nullptr && runner->epochs() > 0;
  if (armed) {
    EXPECT_NE(cluster->checker(), nullptr);
    if (cluster->checker() != nullptr) {
      out.checker_events = cluster->checker()->events_observed();
    }
    out.trace_json = cluster->tracer().chrome_trace_json();
  }
  unsetenv("OBJRPC_SHARDS");
  return out;
}

TEST(ShardCluster, EnvOptInByteIdenticalAcrossShardCounts) {
  const std::uint64_t serial = run_cluster_workload(nullptr).wire_digest;
  EXPECT_NE(serial, 0u);
  for (const char* n : {"1", "2", "4", "8"}) {
    EXPECT_EQ(run_cluster_workload(n).wire_digest, serial)
        << "OBJRPC_SHARDS=" << n;
  }
}

TEST(ShardCluster, ArmedCheckerAndTracerByteIdenticalAcrossShardCounts) {
  // The §17 acceptance matrix at the full-stack level: same seed,
  // serial vs 2/4/8 shards, checker + tracer armed.  Wire digest (with
  // the checker's facts folded in), checker event count, and trace JSON
  // must agree byte-for-byte — and the
  // sharded legs must actually run the concurrent driver.
  const ClusterRun base = run_cluster_workload(nullptr, /*armed=*/true);
  EXPECT_NE(base.wire_digest, 0u);
  EXPECT_GT(base.checker_events, 0u);
  ASSERT_FALSE(base.trace_json.empty());
  for (const char* n : {"2", "4", "8"}) {
    const ClusterRun p = run_cluster_workload(n, /*armed=*/true);
    EXPECT_TRUE(p.concurrent) << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.wire_digest, base.wire_digest) << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.checker_events, base.checker_events)
        << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.trace_json, base.trace_json) << "OBJRPC_SHARDS=" << n;
  }
}

}  // namespace
}  // namespace objrpc
