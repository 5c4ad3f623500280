// Thread-safety tests, written to run under ThreadSanitizer (the CI
// `tsan` job builds the whole suite with -fsanitize=thread).
//
// The simulation itself is single-threaded by design — one EventLoop,
// no locks — but the LIBRARY must be usable from threaded harnesses:
// parameter sweeps run one independent Cluster per thread (each with
// its own loop, fabric, and RNG streams), so any hidden shared mutable
// state (a static counter, a lazily-initialised global, the log level)
// is a real race.  These tests drive the threaded netsync/service and
// failover paths in parallel and let TSan prove isolation.
//
// gtest assertions are not thread-safe, so worker threads only record
// into their own slots; all asserting happens on the main thread after
// join.  Worker threads hand their clusters back too, and the main
// thread destroys them in worker order, so the digest lines each
// Cluster appends to $CHECK_DIGEST_FILE at teardown come out in the
// same order on every run (tools/determinism_audit compares them).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "core/cluster.hpp"
#include "sim/shard.hpp"

namespace objrpc {
namespace {

/// Sets (or, given null, unsets) one environment variable for its
/// scope, then restores what the harness had.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// One complete service/netsync workload on a private Cluster: create,
/// fetch, write-invalidate, atomics.  The counter word sits at
/// kDataStart, so the write stores `seed` and the atomics add 4*7 on
/// top: the deterministic result is seed + 28.  `epochs` receives the
/// worker rounds of a sharded run.  With `keep`, the cluster is left
/// there for the caller to destroy; otherwise it dies on return.
std::uint64_t run_service_workload(std::uint64_t seed, bool* ok,
                                   int check_invariants = 1,
                                   bool arm_tracer = false,
                                   std::uint64_t* epochs = nullptr,
                                   std::unique_ptr<Cluster>* keep = nullptr) {
  *ok = false;
  std::unique_ptr<Cluster> owned;
  std::unique_ptr<Cluster>& cluster = keep != nullptr ? *keep : owned;
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;
  cfg.fabric.seed = seed;
  cfg.check_invariants = check_invariants;  // the checker's hooks must be as
                                            // isolated as the protocol state
                                            // they observe
  cluster = Cluster::build(cfg);
  // Sharded runs (OBJRPC_SHARDS): run every window on the workers;
  // left to itself the runner would keep this workload's windows (one
  // op in flight, mostly one busy shard) on the coordinator.
  if (ShardRunner* run = cluster->fabric().network().runner()) {
    run->force_worker_epochs_for_test();
  }
  if (arm_tracer) cluster->tracer().arm();
  auto obj = cluster->create_object(1, 4096);
  if (!obj) return 0;
  const ObjectId id = (*obj)->id();
  auto off = (*obj)->alloc(8);
  if (!off || !(*obj)->write_u64(*off, 100)) return 0;
  const GlobalPtr word{id, *off};
  cluster->settle();

  bool fetched = false;
  cluster->fetcher(0).fetch(id, [&](Status s) { fetched = s.is_ok(); });
  cluster->settle();
  if (!fetched) return 0;

  bool wrote = false;
  BufWriter w(8);
  w.put_u64(seed);
  cluster->service(1).write(GlobalPtr{id, Object::kDataStart},
                            std::move(w).take(),
                            [&](Status s, const AccessStats&) {
                              wrote = s.is_ok();
                            });
  cluster->settle();
  if (!wrote) return 0;

  for (int i = 0; i < 4; ++i) {
    // Reads Log::level_ (and prints nothing at the default level), so
    // every worker round races against a concurrent set_level unless
    // the level is atomic.
    Log::debug("concurrency_test", "atomic round %d", i);
    bool applied = false;
    cluster->service(0).atomic_fetch_add(
        word, 7, [&](Result<AtomicResponse> r, const AccessStats&) {
          applied = r.has_value() && r->applied;
        });
    cluster->settle();
    if (!applied) return 0;
  }

  auto stored = cluster->host(1).store().get(id);
  if (!stored) return 0;
  auto value = (*stored)->read_u64(*off);
  if (!value) return 0;
  *ok = check_invariants == 0 ||
        (cluster->checker() != nullptr && cluster->checker()->clean());
  if (const ShardRunner* run = cluster->fabric().network().runner();
      run != nullptr && epochs != nullptr) {
    *epochs = run->epochs();
  }
  return *value;
}

TEST(ConcurrencyTest, IndependentClustersInParallelThreads) {
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> results(kThreads, 0);
  // NOT vector<bool>: bit-packed slots would themselves race.
  std::vector<std::uint8_t> ok(kThreads, 0);
  std::vector<std::unique_ptr<Cluster>> clusters(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &results, &ok, &clusters] {
      bool worker_ok = false;
      results[t] = run_service_workload(/*seed=*/11 + 2 * t, &worker_ok, 1,
                                        false, nullptr, &clusters[t]);
      ok[t] = worker_ok ? 1 : 0;
    });
  }
  for (auto& th : workers) th.join();
  for (auto& c : clusters) c.reset();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "worker " << t << " failed";
    EXPECT_EQ(results[t], (11u + 2 * t) + 4 * 7) << "worker " << t;
  }
}

// Same seed on every thread: beyond freedom from races, the runs must
// be bit-identical — shared state that merely mutexes (instead of being
// per-instance) would serialize cleanly yet still cross-contaminate
// RNG or ID streams and diverge the results.
TEST(ConcurrencyTest, SameSeedThreadsProduceIdenticalResults) {
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> results(kThreads, 0);
  // NOT vector<bool>: bit-packed slots would themselves race.
  std::vector<std::uint8_t> ok(kThreads, 0);
  std::vector<std::unique_ptr<Cluster>> clusters(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &results, &ok, &clusters] {
      bool worker_ok = false;
      results[t] = run_service_workload(/*seed=*/42, &worker_ok, 1, false,
                                        nullptr, &clusters[t]);
      ok[t] = worker_ok ? 1 : 0;
    });
  }
  for (auto& th : workers) th.join();
  for (auto& c : clusters) c.reset();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "worker " << t << " failed";
    EXPECT_EQ(results[t], results[0]) << "worker " << t << " diverged";
  }
}

// The sharded event loop is the one place the library ITSELF spawns
// threads: OBJRPC_SHARDS=4 partitions the fabric by subtree and runs
// one worker per shard under the BSP epoch protocol (src/sim/shard.cpp
// — per-lane handoff vectors landed at the barrier, the spin-then-park
// barrier, laned state).  This leg runs unobserved so TSan
// exercises the bare epoch machinery; the armed leg below layers the
// observer journal on top.  Beyond freedom from races, the sharded run
// must produce the bit-exact sequential result (DESIGN.md §16).
TEST(ConcurrencyTest, ShardedLoopWorkloadMatchesSequential) {
  bool serial_ok = false;
  const std::uint64_t serial =
      run_service_workload(/*seed=*/33, &serial_ok, /*check_invariants=*/0);
  ASSERT_TRUE(serial_ok);
  ASSERT_EQ(serial, 33u + 4 * 7);

  bool sharded_ok = false;
  std::uint64_t epochs = 0;
  std::uint64_t sharded = 0;
  {
    // The concurrent runner, whatever the harness's environment.
    const ScopedEnv shards("OBJRPC_SHARDS", "4");
    const ScopedEnv no_kill_switch("OBJRPC_SHARDS_SERIAL", nullptr);
    sharded = run_service_workload(/*seed=*/33, &sharded_ok,
                                   /*check_invariants=*/0,
                                   /*arm_tracer=*/false, &epochs);
  }
  ASSERT_TRUE(sharded_ok);
  EXPECT_GT(epochs, 10u) << "the workers barely ran";
  EXPECT_EQ(sharded, serial) << "sharded run diverged from sequential";
}

// Armed observers on the concurrent driver (DESIGN.md §17): tracer and
// invariant checker both ride the per-shard observer journal — SPSC
// appends from worker threads mid-epoch, merge + canonical-order replay
// on the coordinator at the barrier.  TSan must prove the journal's
// handoff (set_deferring under the epoch mutex, pooled packet copies
// crossing lanes, replay on the control wheel) race-free, and the armed
// sharded run must still match the armed sequential run bit-exactly
// with a clean checker.
TEST(ConcurrencyTest, ArmedObserversOnShardedLoopRaceFree) {
  bool serial_ok = false;
  const std::uint64_t serial = run_service_workload(
      /*seed=*/53, &serial_ok, /*check_invariants=*/1, /*arm_tracer=*/true);
  ASSERT_TRUE(serial_ok);  // includes checker()->clean()
  ASSERT_EQ(serial, 53u + 4 * 7);

  bool sharded_ok = false;
  std::uint64_t epochs = 0;
  std::uint64_t sharded = 0;
  {
    const ScopedEnv shards("OBJRPC_SHARDS", "4");
    const ScopedEnv no_kill_switch("OBJRPC_SHARDS_SERIAL", nullptr);
    sharded = run_service_workload(/*seed=*/53, &sharded_ok,
                                   /*check_invariants=*/1,
                                   /*arm_tracer=*/true, &epochs);
  }
  ASSERT_TRUE(sharded_ok);
  EXPECT_GT(epochs, 10u) << "the workers barely ran";
  EXPECT_EQ(sharded, serial) << "armed sharded run diverged";
}

// Regression for a data race TSan found in the seed: Log::level_ was a
// plain static read on every log call and written by set_level, so a
// harness flipping verbosity while simulations ran on other threads
// raced.  It is atomic now; this test recreates exactly that pattern.
TEST(ConcurrencyTest, LogLevelFlipsWhileClustersRun) {
  const LogLevel before = Log::level();
  std::vector<std::uint8_t> ok(2, 0);
  std::vector<std::uint64_t> results(2, 0);
  std::vector<std::unique_ptr<Cluster>> clusters(2);
  std::thread flipper([] {
    for (int i = 0; i < 200; ++i) {
      Log::set_level(i % 2 ? LogLevel::error : LogLevel::off);
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([t, &results, &ok, &clusters] {
      bool worker_ok = false;
      results[t] = run_service_workload(/*seed=*/7 + t, &worker_ok, 1, false,
                                        nullptr, &clusters[t]);
      ok[t] = worker_ok ? 1 : 0;
    });
  }
  flipper.join();
  for (auto& th : workers) th.join();
  for (auto& c : clusters) c.reset();
  Log::set_level(before);
  for (int t = 0; t < 2; ++t) {
    EXPECT_TRUE(ok[t]) << "worker " << t << " failed";
    EXPECT_EQ(results[t], (7u + t) + 4 * 7);
  }
}

}  // namespace
}  // namespace objrpc
