// Tests for src/obs: histogram math, registry snapshot determinism,
// causal span-tree well-formedness on a real fetch, the armed-tracer
// digest invariant, and trace-id propagation across reliable-channel
// fragmentation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/exec_lane.hpp"
#include "core/cluster.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"

using namespace objrpc;

namespace {

// --- observer journal --------------------------------------------------------

TEST(ShardJournal, ReplayVisitsCanonicalKeyOrderAndKeepsProgramOrder) {
  obs::ShardJournal journal;
  journal.configure_lanes(3);
  SimTime at = 0;
  std::uint64_t ka = 0;
  std::uint64_t kb = 0;
  journal.set_stamp([&] { return EventKey{at, ka, kb}; });
  std::vector<std::pair<SimTime, std::string>> seen;
  SimTime clock = -1;
  auto defer_on = [&](std::uint32_t lane, SimTime t, std::uint64_t a,
                      std::uint64_t b, std::string v) {
    at = t;
    ka = a;
    kb = b;
    ExecLane::idx = lane;
    journal.defer(SmallFn([&seen, &clock, v] { seen.emplace_back(clock, v); }));
    ExecLane::idx = 0;
  };
  // Keys interleave across lanes and tie at `at` and at `a`, so every
  // level of the (at, a, b) comparison decides somewhere.
  defer_on(0, 10, 1, 5, "a");
  defer_on(1, 10, 1, 2, "b0");
  defer_on(2, 5, 9, 9, "z");
  defer_on(1, 10, 1, 2, "b1");  // same key as b0: one event, two records
  defer_on(2, 20, 1, 7, "c");
  defer_on(1, 20, 2, 0, "d");
  defer_on(0, 30, 0, 0, "f");
  defer_on(2, 30, 0, 1, "g");
  EXPECT_FALSE(journal.empty());

  journal.replay([&clock](SimTime t) { clock = t; });
  const std::vector<std::pair<SimTime, std::string>> want = {
      {5, "z"},  {10, "b0"}, {10, "b1"}, {10, "a"},
      {20, "c"}, {20, "d"},  {30, "f"},  {30, "g"},
  };
  EXPECT_EQ(seen, want);
  EXPECT_EQ(journal.replayed_total(), want.size());

  // replay cleared every lane: a second replay visits nothing.
  EXPECT_TRUE(journal.empty());
  seen.clear();
  journal.replay([&clock](SimTime t) { clock = t; });
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(journal.replayed_total(), want.size());
}

// --- histogram -----------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket k (1..64) holds [2^(k-1), 2^k).
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_index(7), 3);
  EXPECT_EQ(obs::Histogram::bucket_index(8), 4);
  EXPECT_EQ(obs::Histogram::bucket_index(1024), 11);
  EXPECT_EQ(obs::Histogram::bucket_index((1ULL << 63) - 1), 63);
  EXPECT_EQ(obs::Histogram::bucket_index(1ULL << 63), 64);
  EXPECT_EQ(obs::Histogram::bucket_index(UINT64_MAX), 64);

  // Ranges are inclusive and tile the u64 line with no gaps.
  EXPECT_EQ(obs::Histogram::bucket_range(0), (std::pair<std::uint64_t,
                                              std::uint64_t>{0, 0}));
  EXPECT_EQ(obs::Histogram::bucket_range(1), (std::pair<std::uint64_t,
                                              std::uint64_t>{1, 1}));
  EXPECT_EQ(obs::Histogram::bucket_range(4), (std::pair<std::uint64_t,
                                              std::uint64_t>{8, 15}));
  for (int b = 1; b < obs::Histogram::kBuckets; ++b) {
    const auto [lo, hi] = obs::Histogram::bucket_range(b);
    EXPECT_EQ(obs::Histogram::bucket_index(lo), b) << "bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_index(hi), b) << "bucket " << b;
    const auto prev_hi = obs::Histogram::bucket_range(b - 1).second;
    EXPECT_EQ(lo, prev_hi + 1) << "gap before bucket " << b;
  }
  EXPECT_EQ(obs::Histogram::bucket_range(64).second, UINT64_MAX);
}

TEST(Histogram, MergeIsBucketwiseAddition) {
  obs::Histogram a, b;
  for (std::uint64_t v : {0ULL, 1ULL, 5ULL, 5ULL, 1000ULL}) a.add(v);
  for (std::uint64_t v : {3ULL, 64ULL, 1ULL << 40}) b.add(v);

  obs::Histogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), a.count() + b.count());
  EXPECT_EQ(merged.sum(), a.sum() + b.sum());
  EXPECT_EQ(merged.min(), 0u);
  EXPECT_EQ(merged.max(), 1ULL << 40);
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(merged.bucket_count(i), a.bucket_count(i) + b.bucket_count(i))
        << "bucket " << i;
  }
  // Quantiles stay inside the observed range and are monotone.
  const double p50 = merged.quantile(0.5);
  const double p99 = merged.quantile(0.99);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p99, static_cast<double>(1ULL << 40));
  EXPECT_LE(p50, p99);
}

TEST(Histogram, QuantileClampsToObservedExtremes) {
  obs::Histogram h;
  h.add(100);
  h.add(100);
  h.add(100);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
}

// --- shared scenario -----------------------------------------------------

/// One end-to-end chunked fetch: object homed on host1, fetched by
/// host0.  Multi-chunk so stat + several chunk round trips cross the
/// fabric.  Returns the cluster post-settle for inspection.
std::unique_ptr<Cluster> run_fetch_scenario(std::uint64_t seed,
                                            bool arm_tracer,
                                            int check_invariants = 0) {
  ClusterConfig cfg;
  cfg.fabric.seed = seed;
  cfg.check_invariants = check_invariants;
  auto cluster = Cluster::build(cfg);
  // Sharded runs (OBJRPC_SHARDS): run every window on the workers;
  // left to itself the runner would keep this workload's windows (one
  // op in flight, mostly one busy shard) on the coordinator.
  if (ShardRunner* run = cluster->fabric().network().runner()) {
    run->force_worker_epochs_for_test();
  }
  if (arm_tracer) cluster->tracer().arm();

  auto obj = cluster->create_object(1, 64 * 1024);
  EXPECT_TRUE(obj.has_value());
  cluster->settle();

  Status fetched{Errc::timeout, "not run"};
  cluster->fetcher(0).fetch((*obj)->id(), [&](Status s) { fetched = s; });
  cluster->settle();
  EXPECT_TRUE(fetched.is_ok()) << fetched.error().to_string();
  return cluster;
}

// --- registry ------------------------------------------------------------

TEST(Registry, SnapshotIsDeterministicAcrossSameSeedRuns) {
  const std::string a = run_fetch_scenario(11, false)->metrics().to_json();
  const std::string b = run_fetch_scenario(11, false)->metrics().to_json();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The migrated modules are all present under their instance prefixes.
  for (const char* key :
       {"host0/fetch/", "host0/reliable/", "host0/host/", "sw0/switch/",
        "net/frames_delivered"}) {
    EXPECT_NE(a.find(key), std::string::npos) << key;
  }
}

TEST(Registry, SourcesTrackTheUnderlyingStructs) {
  auto cluster = run_fetch_scenario(12, false);
  const auto snap = cluster->metrics().snapshot();
  std::map<std::string, std::uint64_t> by_name(snap.counters.begin(),
                                               snap.counters.end());
  // The fetch issued chunk requests; the registry view must agree with
  // the legacy struct accessors it reads through.
  EXPECT_EQ(by_name.at("host0/fetch/fetches_started"),
            cluster->fetcher(0).counters().fetches_started);
  EXPECT_GT(by_name.at("host0/fetch/fetches_started"), 0u);
  EXPECT_EQ(by_name.at("host1/fetch/chunks_served"),
            cluster->fetcher(1).counters().chunks_served);
  EXPECT_GT(by_name.at("host1/fetch/chunks_served"), 0u);
  EXPECT_GT(by_name.at("net/frames_delivered"), 0u);
}

// --- span tracing --------------------------------------------------------

TEST(Trace, FetchYieldsWellFormedSpanTree) {
  auto cluster = run_fetch_scenario(13, /*arm_tracer=*/true);
  const obs::Tracer& tracer = cluster->tracer();

  // Find the fetch's root span.
  const obs::SpanRecord* root = nullptr;
  for (const auto& s : tracer.spans()) {
    if (s.name.rfind("fetch:", 0) == 0) {
      root = &s;
      break;
    }
  }
  ASSERT_NE(root, nullptr) << "no fetch root span recorded";
  EXPECT_EQ(root->parent, 0u);
  EXPECT_FALSE(root->open()) << "fetch span never closed";

  const auto spans = tracer.spans_of(root->trace);
  ASSERT_GT(spans.size(), 3u);
  std::unordered_map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& s : spans) {
    EXPECT_EQ(by_id.count(s.id), 0u) << "duplicate span id " << s.id;
    by_id[s.id] = &s;
  }

  std::set<std::uint32_t> nodes;
  std::set<std::string> names;
  for (const auto& s : spans) {
    nodes.insert(s.node);
    names.insert(s.name);
    EXPECT_FALSE(s.open()) << s.name << " left open";
    if (s.id == root->id) continue;
    // Every non-root span's parent exists in the same trace...
    auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << s.name << ": dangling parent";
    // ...the parent chain terminates at the root (no cycles)...
    const obs::SpanRecord* p = it->second;
    std::size_t hops = 0;
    while (p->id != root->id) {
      auto up = by_id.find(p->parent);
      ASSERT_NE(up, by_id.end());
      p = up->second;
      ASSERT_LE(++hops, spans.size()) << "cycle through " << s.name;
    }
    // ...and children nest within their parent's interval.
    const obs::SpanRecord* parent = it->second;
    EXPECT_GE(s.begin, parent->begin) << s.name;
    EXPECT_LE(s.end, parent->end) << s.name;
  }

  // The tree crosses the fabric: requester host, at least one switch
  // pipeline, and the home.
  EXPECT_GE(nodes.size(), 3u);
  EXPECT_TRUE(names.count("pipeline")) << "no switch pipeline span";
  EXPECT_TRUE(names.count("wire")) << "no link span";

  // The Chrome export names every simulated node as its own process
  // (default fabric: 4 switches + 3 hosts).
  const std::string json = tracer.chrome_trace_json();
  std::size_t processes = 0;
  for (std::size_t at = json.find("process_name"); at != std::string::npos;
       at = json.find("process_name", at + 1)) {
    ++processes;
  }
  EXPECT_GE(processes, 4u);
}

TEST(Trace, ArmedTracerLeavesWireDigestUnchanged) {
  auto plain = run_fetch_scenario(14, /*arm_tracer=*/false,
                                  /*check_invariants=*/1);
  auto armed = run_fetch_scenario(14, /*arm_tracer=*/true,
                                  /*check_invariants=*/1);
  ASSERT_NE(plain->checker(), nullptr);
  ASSERT_NE(armed->checker(), nullptr);
  // Arming only toggles recording; id allocation and therefore every
  // frame byte is identical, so the wire digest the checker arms must
  // agree run-for-run.
  EXPECT_GT(plain->checker()->events_observed(), 0u);
  EXPECT_EQ(plain->checker()->events_observed(),
            armed->checker()->events_observed());
  EXPECT_EQ(plain->fabric().network().wire_digest(),
            armed->fabric().network().wire_digest());
  // And the armed run actually recorded something.
  EXPECT_GT(armed->tracer().spans().size(), 0u);
  EXPECT_EQ(plain->tracer().spans().size(), 0u);
}

// --- shard-safe observation (DESIGN.md §17) -------------------------------

/// Observation product of one armed fetch run: everything the observer
/// plane emits, for byte-comparison across driver configurations.
struct ObsProducts {
  std::string trace_json;
  std::map<std::string, std::uint64_t> net_counters;
  std::uint64_t wire_digest = 0;
  std::uint64_t checker_events = 0;
  std::size_t spans = 0;
  bool concurrent = false;
};

ObsProducts run_armed_fetch(std::uint64_t seed, const char* shards_env,
                            bool tracer, bool checker) {
  if (shards_env != nullptr) {
    setenv("OBJRPC_SHARDS", shards_env, 1);
  } else {
    unsetenv("OBJRPC_SHARDS");
  }
  auto cluster = run_fetch_scenario(seed, tracer, checker ? 1 : 0);
  ObsProducts out;
  // run_fetch_scenario forces every window of a sharded run onto the
  // workers, so a concurrent run shows a runner with epochs behind it.
  const ShardRunner* runner = cluster->fabric().network().runner();
  out.concurrent = runner != nullptr && runner->epochs() > 0;
  if (tracer) {
    out.trace_json = cluster->tracer().chrome_trace_json();
    out.spans = cluster->tracer().spans().size();
  }
  if (checker) {
    EXPECT_NE(cluster->checker(), nullptr);
    if (cluster->checker() != nullptr) {
      out.wire_digest = cluster->fabric().network().wire_digest();
      out.checker_events = cluster->checker()->events_observed();
    }
  }
  // Wire-level counters must agree exactly; pool-reuse counters are
  // deliberately excluded (per-lane free lists and journal deep copies
  // change allocation patterns without changing behaviour).
  const auto snap = cluster->metrics().snapshot();
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("net/", 0) == 0) out.net_counters[name] = v;
  }
  unsetenv("OBJRPC_SHARDS");
  return out;
}

class ArmedConcurrent
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ArmedConcurrent, ShardedRunMatchesSerialByteForByte) {
  const auto [tracer, checker] = GetParam();
  const ObsProducts base = run_armed_fetch(29, nullptr, tracer, checker);
  EXPECT_FALSE(base.concurrent);
  if (tracer) {
    ASSERT_FALSE(base.trace_json.empty());
  }
  if (checker) {
    ASSERT_GT(base.checker_events, 0u);
  }
  for (const char* n : {"2", "4", "8"}) {
    const ObsProducts p = run_armed_fetch(29, n, tracer, checker);
    // Armed observers must NOT force the serial driver (§17)...
    EXPECT_TRUE(p.concurrent) << "OBJRPC_SHARDS=" << n;
    // ...yet every observation product is byte-identical.
    EXPECT_EQ(p.trace_json, base.trace_json) << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.spans, base.spans);
    EXPECT_EQ(p.checker_events, base.checker_events)
        << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.wire_digest, base.wire_digest) << "OBJRPC_SHARDS=" << n;
    EXPECT_EQ(p.net_counters, base.net_counters) << "OBJRPC_SHARDS=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Observers, ArmedConcurrent,
    ::testing::Values(std::make_tuple(true, false),
                      std::make_tuple(false, true),
                      std::make_tuple(true, true)),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& param_info) {
      std::string name;
      if (std::get<0>(param_info.param)) name += "Tracer";
      if (std::get<1>(param_info.param)) name += "Checker";
      return name;
    });

// --- reliable-channel trace propagation ----------------------------------

TEST(Trace, FragmentsOfOneMessageShareOneTraceId) {
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;  // unicast paths
  cfg.fabric.seed = 15;
  // Lossy host links force retransmission rounds; retransmitted
  // fragments must still carry the originating trace id.
  cfg.fabric.host_link.loss_rate = 0.25;
  auto cluster = Cluster::build(cfg);
  cluster->tracer().arm();

  auto obj = cluster->create_object(1, 16 * 1024);  // ~12 fragments
  ASSERT_TRUE(obj.has_value());
  cluster->settle();

  // Observe every push_frag delivered to the move's destination host.
  const NodeId dst_node = cluster->host(2).id();
  std::map<std::uint64_t, std::set<std::uint64_t>> traces_by_msg;
  std::map<std::uint64_t, std::set<std::uint64_t>> frags_by_msg;
  cluster->fabric().network().add_tap(
      [&](NodeId, NodeId to, const Packet& pkt) {
        if (to != dst_node) return;
        auto frame = Frame::decode(pkt.data);
        if (!frame || frame->type != MsgType::push_frag) return;
        const std::uint64_t msg_id = frame->seq >> 32;
        traces_by_msg[msg_id].insert(pkt.trace_id);
        frags_by_msg[msg_id].insert((frame->seq >> 16) & 0xFFFF);
        // The wire context and the packet metadata agree.
        EXPECT_EQ(frame->trace.trace, pkt.trace_id);
      });

  Status moved{Errc::timeout, "not run"};
  cluster->move_object((*obj)->id(), 1, 2, [&](Status s) { moved = s; });
  cluster->settle();
  ASSERT_TRUE(moved.is_ok()) << moved.error().to_string();

  ASSERT_FALSE(traces_by_msg.empty());
  bool saw_multi_fragment = false;
  for (const auto& [msg_id, traces] : traces_by_msg) {
    EXPECT_EQ(traces.size(), 1u)
        << "message " << msg_id << " fragments carry "
        << traces.size() << " distinct trace ids";
    saw_multi_fragment |= frags_by_msg[msg_id].size() > 1;
  }
  EXPECT_TRUE(saw_multi_fragment) << "move never fragmented";

  // The lossy links really did force retries, and each retry round was
  // recorded as an instant on the original trace.
  const auto snap = cluster->metrics().snapshot();
  std::map<std::string, std::uint64_t> by_name(snap.counters.begin(),
                                               snap.counters.end());
  ASSERT_GT(by_name.at("host1/reliable/retransmissions"), 0u);
  bool saw_retry_event = false;
  for (const auto& i : cluster->tracer().instants()) {
    saw_retry_event |= i.name.rfind("retransmit", 0) == 0;
  }
  EXPECT_TRUE(saw_retry_event);
}

}  // namespace
