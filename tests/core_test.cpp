// Tests for the core layer: code registry, placement engine, on-demand
// fetching + caching + invalidation, fault-and-retry invocation,
// cluster API, rendezvous strategies, prefetch policies.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/rendezvous.hpp"
#include "objspace/structures.hpp"

namespace objrpc {
namespace {

ClusterConfig small_cluster(DiscoveryScheme scheme = DiscoveryScheme::e2e,
                            std::uint64_t seed = 3) {
  ClusterConfig cfg;
  cfg.fabric.scheme = scheme;
  cfg.fabric.seed = seed;
  return cfg;
}

// --- CodeRegistry -----------------------------------------------------------

TEST(CodeRegistry, RegisterLookupFind) {
  CodeRegistry reg{IdAllocator(Rng(1))};
  const FuncId id = reg.register_function(
      "double",
      [](InvokeContext&, const std::vector<GlobalPtr>&, ByteSpan) {
        return Result<Bytes>(Bytes{});
      },
      CodeCost{2.0, 50.0});
  auto entry = reg.lookup(id);
  ASSERT_TRUE(entry);
  EXPECT_EQ((*entry)->name, "double");
  EXPECT_DOUBLE_EQ((*entry)->cost.ops_per_byte, 2.0);
  auto found = reg.find_by_name("double");
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, id);
  EXPECT_FALSE(reg.lookup(FuncId{U128{1, 1}}));
  EXPECT_FALSE(reg.find_by_name("nope"));
}

// --- PlacementEngine ----------------------------------------------------------

HostProfile prof(HostAddr addr, double rate = 1.0, double load = 0.0,
                 std::uint64_t mem = ~0ULL) {
  return HostProfile{addr, rate, load, mem};
}

TEST(Placement, PrefersDataLocality) {
  PlacementEngine engine;
  PlacementRequest req;
  req.invoker = 1;
  req.args = {{GlobalPtr{}, 10 << 20, /*home=*/2}};  // 10 MiB on host 2
  auto d = engine.decide(req, {prof(1), prof(2), prof(3)});
  ASSERT_TRUE(d);
  EXPECT_EQ(d->executor, 2u);  // run where the data is
  EXPECT_EQ(d->bytes_moved, 0u);
}

TEST(Placement, OffloadsFromLoadedHost) {
  PlacementEngine engine;
  PlacementRequest req;
  req.invoker = 1;
  req.code = CodeCost{100.0, 0.0};  // compute-heavy
  req.args = {{GlobalPtr{}, 1 << 10, /*home=*/2}};  // tiny data on host 2
  // Host 2 (Bob) is overloaded; host 3 (Carol) idle.
  auto d = engine.decide(req, {prof(1, 1.0, 0.95), prof(2, 1.0, 0.95),
                               prof(3, 1.0, 0.0)});
  ASSERT_TRUE(d);
  EXPECT_EQ(d->executor, 3u);  // worth moving 1 KiB to idle Carol
}

TEST(Placement, RespectsCapacity) {
  PlacementEngine engine;
  PlacementRequest req;
  req.invoker = 1;
  req.args = {{GlobalPtr{}, 1 << 20, /*home=*/2}};
  // Host 1 lacks memory for the megabyte; host 3 has room.
  auto d = engine.decide(req, {prof(1, 10.0, 0.0, 1024), prof(3, 1.0, 0.0)});
  ASSERT_TRUE(d);
  EXPECT_EQ(d->executor, 3u);
  // And if nobody fits:
  auto none = engine.decide(req, {prof(1, 1.0, 0.0, 16)});
  EXPECT_FALSE(none);
  EXPECT_EQ(none.error().code, Errc::capacity_exceeded);
}

TEST(Placement, InlineBytesChargeRemoteExecutors) {
  PlacementEngine engine;
  PlacementRequest req;
  req.invoker = 1;
  req.inline_bytes = 10 << 20;  // huge activation held by the invoker
  auto d = engine.decide(req, {prof(1), prof(2)});
  ASSERT_TRUE(d);
  EXPECT_EQ(d->executor, 1u);  // stay home: shipping the activation is dear
}

TEST(Placement, ScoresExposeAllCandidates) {
  PlacementEngine engine;
  PlacementRequest req;
  req.invoker = 1;
  auto d = engine.decide(req, {prof(1), prof(2), prof(3)});
  ASSERT_TRUE(d);
  EXPECT_EQ(d->scores.size(), 3u);
  for (const auto& s : d->scores) EXPECT_TRUE(s.feasible);
}

TEST(Placement, NoCandidatesIsError) {
  PlacementEngine engine;
  EXPECT_FALSE(engine.decide(PlacementRequest{}, {}));
}

// --- ObjectFetcher ---------------------------------------------------------------

class FetchTest : public ::testing::TestWithParam<DiscoveryScheme> {};

TEST_P(FetchTest, PullsRemoteObjectIntoStore) {
  auto cluster = Cluster::build(small_cluster(GetParam()));
  auto obj = cluster->create_object(1, 8192);
  ASSERT_TRUE(obj);
  ASSERT_TRUE((*obj)->write_u64(Object::kDataStart, 0xABCD));
  cluster->settle();

  Status fetched{Errc::unavailable};
  cluster->fetcher(0).fetch((*obj)->id(), [&](Status s) { fetched = s; });
  cluster->settle();
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_TRUE(cluster->host(0).store().contains((*obj)->id()));
  EXPECT_TRUE(cluster->fetcher(0).is_cached_replica((*obj)->id()));
  auto local = cluster->host(0).store().get((*obj)->id());
  ASSERT_TRUE(local);
  auto v = (*local)->read_u64(Object::kDataStart);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 0xABCDu);
  // The home tracked us in its copyset.
  EXPECT_EQ(cluster->fetcher(1).copyset_size((*obj)->id()), 1u);
}

TEST_P(FetchTest, LocalFetchIsNoop) {
  auto cluster = Cluster::build(small_cluster(GetParam()));
  auto obj = cluster->create_object(0, 1024);
  ASSERT_TRUE(obj);
  cluster->settle();
  Status fetched{Errc::unavailable};
  cluster->fetcher(0).fetch((*obj)->id(), [&](Status s) { fetched = s; });
  EXPECT_TRUE(fetched.is_ok());  // synchronous
  EXPECT_EQ(cluster->fetcher(0).counters().already_local, 1u);
  EXPECT_FALSE(cluster->fetcher(0).is_cached_replica((*obj)->id()));
}

TEST_P(FetchTest, ConcurrentFetchesCoalesce) {
  auto cluster = Cluster::build(small_cluster(GetParam()));
  auto obj = cluster->create_object(1, 16384);
  ASSERT_TRUE(obj);
  cluster->settle();
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    cluster->fetcher(0).fetch((*obj)->id(), [&](Status s) {
      EXPECT_TRUE(s.is_ok());
      ++done;
    });
  }
  cluster->settle();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(cluster->fetcher(0).counters().fetches_started, 1u);
}

TEST_P(FetchTest, WriteAtHomeInvalidatesReplica) {
  auto cluster = Cluster::build(small_cluster(GetParam()));
  auto obj = cluster->create_object(1, 4096);
  ASSERT_TRUE(obj);
  auto off = (*obj)->alloc(16);
  ASSERT_TRUE(off);
  cluster->settle();
  Status fetched{Errc::unavailable};
  cluster->fetcher(0).fetch((*obj)->id(), [&](Status s) { fetched = s; });
  cluster->settle();
  ASSERT_TRUE(fetched.is_ok());

  // A third host writes at the home; host0's replica must die.
  Status wrote{Errc::unavailable};
  cluster->service(2).write(GlobalPtr{(*obj)->id(), *off}, Bytes{1, 2, 3},
                            [&](Status s, const AccessStats&) { wrote = s; });
  cluster->settle();
  ASSERT_TRUE(wrote.is_ok());
  EXPECT_FALSE(cluster->host(0).store().contains((*obj)->id()));
  EXPECT_FALSE(cluster->fetcher(0).is_cached_replica((*obj)->id()));
  EXPECT_GE(cluster->fetcher(1).counters().invalidates_sent, 1u);
  EXPECT_EQ(cluster->fetcher(0).counters().evictions, 1u);
}

TEST_P(FetchTest, InFlightChunkRespCannotResurrectStaleReplica) {
  // Sweep a home-side write across every interleaving point of a fetch:
  // before the stat, between stat and chunks, while chunk_resps are in
  // flight, after adoption.  Whatever the timing, host0 must never end
  // up holding the pre-write image — the invalidate raises the pending
  // fetch's version floor and the per-chunk version guard discards
  // stale/torn responses, forcing a restart that pulls the new image.
  // With 5us links and 1us switch pipelines the whole pull completes
  // within ~150us, so step fine enough to land between chunk events.
  // On this single-path FIFO fabric the invalidate always overtakes the
  // straggling chunk_resps (same route, sent earlier), so the defence
  // that fires is the mid-pending restart; the per-chunk version guards
  // are exercised cycle-exactly by the inc_test injection harness.
  std::uint64_t mid_pending_invalidates = 0;  // sweep must hit the race
  for (SimTime delta = 0; delta <= 150 * kMicrosecond;
       delta += 3 * kMicrosecond) {
    auto cluster = Cluster::build(small_cluster(GetParam()));
    auto obj = cluster->create_object(1, 32 * 1024);
    ASSERT_TRUE(obj);
    ASSERT_TRUE((*obj)->write_u64(Object::kDataStart, 1));  // old image
    cluster->settle();

    Status fetched{Errc::unavailable};
    cluster->fetcher(0).fetch((*obj)->id(), [&](Status s) { fetched = s; });
    cluster->loop().run_until(cluster->loop().now() + delta);

    // The home mutates the object mid-fetch: version bump + invalidate.
    Bytes raw(8, 0);
    raw[0] = 2;
    Status wrote{Errc::unavailable};
    cluster->service(1).write(GlobalPtr{(*obj)->id(), Object::kDataStart},
                              raw,
                              [&](Status s, const AccessStats&) { wrote = s; });
    cluster->settle();
    ASSERT_TRUE(wrote.is_ok());
    ASSERT_TRUE(fetched.is_ok()) << "delta=" << delta;

    // Either the replica died (fetch finished before the write and the
    // invalidate killed it) or it holds the post-write image.  The old
    // image surviving anywhere is the resurrection bug.
    if (cluster->host(0).store().contains((*obj)->id())) {
      auto local = cluster->host(0).store().get((*obj)->id());
      ASSERT_TRUE(local);
      EXPECT_EQ(*(*local)->read_u64(Object::kDataStart), 2u)
          << "stale replica resurrected at delta=" << delta;
    }
    // An invalidate received without a matching replica eviction means
    // it landed while the fetch was still pending — the racing case.
    const auto& fc = cluster->fetcher(0).counters();
    mid_pending_invalidates += fc.invalidates_received - fc.evictions;
  }
  // At least one interleaving point must have delivered the invalidate
  // mid-fetch — otherwise this sweep proves nothing about the race.
  EXPECT_GT(mid_pending_invalidates, 0u);
}

TEST_P(FetchTest, MissingObjectFails) {
  auto cluster = Cluster::build(small_cluster(GetParam()));
  Status fetched{Errc::ok};
  // (config is baked in; rely on discovery failure / punt drop + retries)
  cluster->fetcher(0).fetch(ObjectId{9, 9}, [&](Status s) { fetched = s; });
  cluster->settle();
  EXPECT_FALSE(fetched.is_ok());
}

INSTANTIATE_TEST_SUITE_P(Schemes, FetchTest,
                         ::testing::Values(DiscoveryScheme::e2e,
                                           DiscoveryScheme::controller));

// --- timeouts: one deadline timer per requester ----------------------------------

/// Runs `f` at `at` in host `h`'s own context, where a requester's
/// deadline timer keeps one wheel event for all of its deadlines.
template <typename F>
void on_host(Cluster& c, std::size_t h, SimTime at, F f) {
  c.fabric().network().schedule_on(c.host(h).id(), at, std::move(f));
}

std::vector<ObjectId> make_objects(Cluster& c, std::size_t host, int n) {
  std::vector<ObjectId> ids;
  for (int i = 0; i < n; ++i) {
    auto obj = c.create_object(host, 4096);
    EXPECT_TRUE(obj);
    ids.push_back((*obj)->id());
  }
  c.settle();
  return ids;
}

TEST(FetchTimeout, CrashedHomeFailsOnSchedule) {
  auto cluster = Cluster::build(small_cluster());
  const std::vector<ObjectId> ids = make_objects(*cluster, 1, 8);
  ObjectFetcher& fetcher = cluster->fetcher(0);
  // A batch of pulls, every one complete long before its 20 ms
  // deadline: one timer event stands for all of them.
  const SimTime t0 = cluster->loop().now();
  int ok = 0;
  on_host(*cluster, 0, t0, [&] {
    for (ObjectId id : ids) {
      fetcher.fetch(id, [&](Status s) { ok += s.is_ok() ? 1 : 0; });
    }
  });
  cluster->loop().run_until(t0 + 5 * kMillisecond);
  EXPECT_EQ(ok, 8);
  EXPECT_LE(fetcher.deadline_timer().events_pending(), 1u);
  cluster->settle();
  EXPECT_EQ(fetcher.deadline_timer().events_pending(), 0u);

  // The home crashes.  A pull of a location the client still caches
  // times out against it (20 ms), reports it stale, rediscovers, and
  // no host answers (three broadcasts, 5 ms apart).
  fetcher.evict(ids[0]);
  cluster->fabric().network().set_node_up(cluster->host(1).id(), false);
  const SimTime t1 = cluster->loop().now();
  Status failed = Status::ok();
  SimTime failed_at = 0;
  on_host(*cluster, 0, t1, [&] {
    fetcher.fetch(ids[0], [&](Status s) {
      failed = s;
      failed_at = cluster->loop().now();
    });
  });
  cluster->settle();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.error().code, Errc::not_found);
  EXPECT_EQ(fetcher.counters().timeout_rediscoveries, 1u);
  EXPECT_EQ(failed_at - t1, 35 * kMillisecond);
}

TEST(FetchTimeout, CompletedPullsDeadlineSparesTheNextPull) {
  // A pull's deadline dies with the pull.  A later pull of the same
  // object, in flight when the first one's deadline comes due, must
  // not be restarted by it (it used to be, when each pull numbered its
  // attempts from one and the old timer matched the new attempt).
  auto cluster = Cluster::build(small_cluster());
  const ObjectId id = make_objects(*cluster, 1, 1)[0];
  ObjectFetcher& fetcher = cluster->fetcher(0);
  fetcher.fetch(id, nullptr);  // warm the location cache
  cluster->settle();
  fetcher.evict(id);
  const SimTime t0 = cluster->loop().now();
  const SimDuration timeout = ObjectFetcher::kTimeout;
  SimTime first_took = 0;
  SimTime second_took = 0;
  on_host(*cluster, 0, t0, [&] {
    fetcher.fetch(id, [&](Status s) {
      EXPECT_TRUE(s.is_ok());
      first_took = cluster->loop().now() - t0;
      fetcher.evict(id);
    });
  });
  const SimTime t1 = t0 + timeout - 10 * kMicrosecond;
  on_host(*cluster, 0, t1, [&] {
    fetcher.fetch(id, [&](Status s) {
      EXPECT_TRUE(s.is_ok());
      second_took = cluster->loop().now() - t1;
    });
  });
  cluster->settle();
  ASSERT_GT(first_took, 10 * kMicrosecond);  // still in flight at t0 + timeout
  EXPECT_EQ(second_took, first_took);
  EXPECT_EQ(fetcher.counters().timeout_rediscoveries, 0u);
}

// --- invocation -------------------------------------------------------------------

/// Registers a function that sums u64s at the argument pointers.
FuncId register_sum(Cluster& cluster) {
  return cluster.code().register_function(
      "sum",
      [](InvokeContext& ctx, const std::vector<GlobalPtr>& args,
         ByteSpan) -> Result<Bytes> {
        std::uint64_t total = 0;
        for (const auto& a : args) {
          auto obj = ctx.resolve(a);
          if (!obj) return obj.error();
          auto v = (*obj)->read_u64(a.offset);
          if (!v) return v.error();
          total += *v;
        }
        BufWriter w;
        w.put_u64(total);
        return std::move(w).take();
      });
}

/// Walks an in-object linked list and sums node values (faults its way
/// across objects it has never seen).
FuncId register_walk(Cluster& cluster) {
  return cluster.code().register_function(
      "walk",
      [](InvokeContext& ctx, const std::vector<GlobalPtr>& args,
         ByteSpan) -> Result<Bytes> {
        auto visited = ObjLinkedList::walk(args.at(0), ctx.resolver());
        if (!visited) return visited.error();
        std::uint64_t total = 0;
        for (const auto& v : *visited) total += v.value;
        BufWriter w;
        w.put_u64(total);
        return std::move(w).take();
      });
}

TEST(Invoke, LocalExecutionNoFaults) {
  auto cluster = Cluster::build(small_cluster());
  const FuncId sum = register_sum(*cluster);
  auto obj = cluster->create_object(0, 4096);
  ASSERT_TRUE(obj);
  auto off = (*obj)->alloc(8);
  ASSERT_TRUE(off);
  ASSERT_TRUE((*obj)->write_u64(*off, 41));
  cluster->settle();

  Result<Bytes> got{Errc::unavailable};
  InvokeStats stats;
  cluster->invoke_at(0, cluster->addr_of(0), sum,
                     {GlobalPtr{(*obj)->id(), *off}}, {},
                     [&](Result<Bytes> r, const InvokeStats& s) {
                       got = std::move(r);
                       stats = s;
                     });
  cluster->settle();
  ASSERT_TRUE(got);
  BufReader r(*got);
  EXPECT_EQ(r.get_u64(), 41u);
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(stats.objects_fetched, 0);
}

TEST(Invoke, RemoteInvocationFetchesArgs) {
  auto cluster = Cluster::build(small_cluster());
  const FuncId sum = register_sum(*cluster);
  auto a = cluster->create_object(1, 4096);
  auto b = cluster->create_object(2, 4096);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  auto off_a = (*a)->alloc(8);
  auto off_b = (*b)->alloc(8);
  ASSERT_TRUE((*a)->write_u64(*off_a, 40));
  ASSERT_TRUE((*b)->write_u64(*off_b, 2));
  cluster->settle();

  // Invoke from host 0 ON host 1: host 1 has `a` but must fetch `b`.
  Result<Bytes> got{Errc::unavailable};
  InvokeStats stats;
  cluster->invoke_at(0, cluster->addr_of(1), sum,
                     {GlobalPtr{(*a)->id(), *off_a},
                      GlobalPtr{(*b)->id(), *off_b}},
                     {},
                     [&](Result<Bytes> r, const InvokeStats& s) {
                       got = std::move(r);
                       stats = s;
                     });
  cluster->settle();
  ASSERT_TRUE(got) << got.error().to_string();
  BufReader r(*got);
  EXPECT_EQ(r.get_u64(), 42u);
  EXPECT_EQ(stats.executor, cluster->addr_of(1));
  EXPECT_TRUE(cluster->fetcher(1).is_cached_replica((*b)->id()));
}

TEST(Invoke, FaultAndRetryAcrossChain) {
  auto cluster = Cluster::build(small_cluster());
  const FuncId walk = register_walk(*cluster);
  // A list spanning three objects on three hosts.
  auto o0 = cluster->create_object(0, 1 << 14);
  auto o1 = cluster->create_object(1, 1 << 14);
  auto o2 = cluster->create_object(2, 1 << 14);
  ASSERT_TRUE(o0);
  ASSERT_TRUE(o1);
  ASSERT_TRUE(o2);
  auto list = ObjLinkedList::create(*o0);
  ASSERT_TRUE(list);
  ASSERT_TRUE(list->append(*o0, *o0, 10));
  ASSERT_TRUE(list->append(*o0, *o1, 20));
  ASSERT_TRUE(list->append(*o1, *o2, 30));
  cluster->settle();

  Result<Bytes> got{Errc::unavailable};
  InvokeStats stats;
  cluster->invoke_at(0, cluster->addr_of(0), walk, {list->head()}, {},
                     [&](Result<Bytes> r, const InvokeStats& s) {
                       got = std::move(r);
                       stats = s;
                     });
  cluster->settle();
  ASSERT_TRUE(got) << got.error().to_string();
  BufReader r(*got);
  EXPECT_EQ(r.get_u64(), 60u);
  // Walked into o1 then o2: two fault rounds beyond the first run.
  EXPECT_EQ(stats.rounds, 3);
  EXPECT_EQ(stats.objects_fetched, 2);
}

TEST(Invoke, UnknownFunctionFails) {
  auto cluster = Cluster::build(small_cluster());
  Result<Bytes> got{Errc::ok};
  cluster->invoke_at(0, cluster->addr_of(0), FuncId{U128{4, 4}}, {}, {},
                     [&](Result<Bytes> r, const InvokeStats&) {
                       got = std::move(r);
                     });
  cluster->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::not_found);
}

TEST(Invoke, RemoteErrorPropagates) {
  auto cluster = Cluster::build(small_cluster());
  const FuncId fail = cluster->code().register_function(
      "fail", [](InvokeContext&, const std::vector<GlobalPtr>&,
                 ByteSpan) -> Result<Bytes> {
        return Error{Errc::permission_denied, "computer says no"};
      });
  Result<Bytes> got{Errc::ok};
  cluster->invoke_at(0, cluster->addr_of(1), fail, {}, {},
                     [&](Result<Bytes> r, const InvokeStats&) {
                       got = std::move(r);
                     });
  cluster->settle();
  EXPECT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::permission_denied);
  EXPECT_EQ(got.error().message, "computer says no");
}

TEST(Invoke, InlineArgDelivered) {
  auto cluster = Cluster::build(small_cluster());
  const FuncId echo = cluster->code().register_function(
      "echo", [](InvokeContext&, const std::vector<GlobalPtr>&,
                 ByteSpan inline_arg) -> Result<Bytes> {
        return Bytes(inline_arg.begin(), inline_arg.end());
      });
  Result<Bytes> got{Errc::unavailable};
  cluster->invoke_at(0, cluster->addr_of(2), echo, {}, Bytes{7, 8, 9},
                     [&](Result<Bytes> r, const InvokeStats&) {
                       got = std::move(r);
                     });
  cluster->settle();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, (Bytes{7, 8, 9}));
}

TEST(Invoke, RemoteToCrashedExecutorTimesOutOnSchedule) {
  auto cluster = Cluster::build(small_cluster());
  const FuncId sum = register_sum(*cluster);
  InvokeRuntime& runtime = cluster->runtime(0);
  // A batch of remote invocations, each answered long before its
  // 100 ms deadline: one timer event stands for all of them.
  const SimTime t0 = cluster->loop().now();
  int ok = 0;
  on_host(*cluster, 0, t0, [&] {
    for (int i = 0; i < 8; ++i) {
      cluster->invoke_at(0, cluster->addr_of(1), sum, {}, {},
                         [&](Result<Bytes> r, const InvokeStats&) {
                           ok += r ? 1 : 0;
                         });
    }
  });
  cluster->loop().run_until(t0 + 5 * kMillisecond);
  EXPECT_EQ(ok, 8);
  EXPECT_LE(runtime.deadline_timer().events_pending(), 1u);
  cluster->settle();
  EXPECT_EQ(runtime.deadline_timer().events_pending(), 0u);

  // The executor crashes: both attempts go unanswered, 100 ms apart.
  cluster->fabric().network().set_node_up(cluster->host(1).id(), false);
  const SimTime t1 = cluster->loop().now();
  Result<Bytes> got{Errc::ok};
  InvokeStats stats;
  on_host(*cluster, 0, t1, [&] {
    cluster->invoke_at(0, cluster->addr_of(1), sum, {}, {},
                       [&](Result<Bytes> r, const InvokeStats& s) {
                         got = std::move(r);
                         stats = s;
                       });
  });
  cluster->settle();
  ASSERT_FALSE(got);
  EXPECT_EQ(got.error().code, Errc::timeout);
  EXPECT_EQ(stats.started_at, t1);
  EXPECT_EQ(stats.finished_at - t1, 200 * kMillisecond);
  EXPECT_EQ(runtime.counters().failures, 1u);
}

// --- cluster-level placement -----------------------------------------------------

TEST(ClusterInvoke, RunsWhereTheDataIs) {
  ClusterConfig cfg = small_cluster();
  auto cluster = Cluster::build(cfg);
  const FuncId sum = register_sum(*cluster);
  auto obj = cluster->create_object(2, 1 << 20);  // 1 MiB on host 2
  ASSERT_TRUE(obj);
  auto off = (*obj)->alloc(8);
  ASSERT_TRUE((*obj)->write_u64(*off, 5));
  cluster->settle();

  InvokeStats stats;
  Result<Bytes> got{Errc::unavailable};
  cluster->invoke(0, sum, {GlobalPtr{(*obj)->id(), *off}}, {},
                  [&](Result<Bytes> r, const InvokeStats& s) {
                    got = std::move(r);
                    stats = s;
                  });
  cluster->settle();
  ASSERT_TRUE(got);
  EXPECT_EQ(stats.executor, cluster->addr_of(2));  // moved code, not data
}

TEST(ClusterInvoke, OffloadsWhenDataHostLoaded) {
  ClusterConfig cfg = small_cluster();
  cfg.loads = {0.0, 0.99, 0.0};  // Bob (host 1) overloaded
  auto cluster = Cluster::build(cfg);
  const FuncId sum = register_sum(*cluster);
  // Compute-heavy function over small data.
  const FuncId heavy = cluster->code().register_function(
      "heavy",
      [](InvokeContext& ctx, const std::vector<GlobalPtr>& args,
         ByteSpan) -> Result<Bytes> {
        auto obj = ctx.resolve(args.at(0));
        if (!obj) return obj.error();
        return Bytes{1};
      },
      CodeCost{1e6, 1e6});
  (void)sum;
  auto obj = cluster->create_object(1, 2048);
  ASSERT_TRUE(obj);
  cluster->settle();
  InvokeStats stats;
  cluster->invoke(0, heavy, {GlobalPtr{(*obj)->id(), Object::kDataStart}},
                  {}, [&](Result<Bytes> r, const InvokeStats& s) {
                    ASSERT_TRUE(r);
                    stats = s;
                  });
  cluster->settle();
  EXPECT_NE(stats.executor, cluster->addr_of(1));  // fled the hot host
}

TEST(ClusterDirectory, TracksMoves) {
  auto cluster = Cluster::build(small_cluster());
  auto obj = cluster->create_object(1, 4096);
  ASSERT_TRUE(obj);
  cluster->settle();
  auto home = cluster->home_of((*obj)->id());
  ASSERT_TRUE(home);
  EXPECT_EQ(*home, cluster->addr_of(1));

  Status moved{Errc::unavailable};
  cluster->move_object((*obj)->id(), 1, 2, [&](Status s) { moved = s; });
  cluster->settle();
  ASSERT_TRUE(moved.is_ok());
  home = cluster->home_of((*obj)->id());
  ASSERT_TRUE(home);
  EXPECT_EQ(*home, cluster->addr_of(2));
  EXPECT_TRUE(cluster->size_of((*obj)->id()));
}

// --- rendezvous strategies ----------------------------------------------------------

struct RendezvousWorld {
  std::unique_ptr<Cluster> cluster;
  RendezvousScenario scenario;

  explicit RendezvousWorld(std::uint64_t model_bytes = 64 * 1024,
                           double bob_load = 0.95) {
    ClusterConfig cfg = small_cluster();
    cfg.loads = {0.0, bob_load, 0.0};  // Alice, Bob (loaded), Carol
    cluster = Cluster::build(cfg);
    auto obj = cluster->create_object(1, model_bytes);
    EXPECT_TRUE(obj);
    auto off = (*obj)->alloc(8);
    EXPECT_TRUE((*obj)->write_u64(*off, 123));
    cluster->settle();
    scenario.data_objects = {(*obj)->id()};
    scenario.args = {GlobalPtr{(*obj)->id(), *off}};
    scenario.activation = Bytes(128, 0xA1);
    scenario.invoker = 0;
    scenario.data_host = 1;
    scenario.manual_executor = 2;
    scenario.fn = cluster->code().register_function(
        "infer",
        [](InvokeContext& ctx, const std::vector<GlobalPtr>& args,
           ByteSpan) -> Result<Bytes> {
          auto obj2 = ctx.resolve(args.at(0));
          if (!obj2) return obj2.error();
          auto v = (*obj2)->read_u64(args.at(0).offset);
          if (!v) return v.error();
          BufWriter w;
          w.put_u64(*v * 2);
          return std::move(w).take();
        },
        CodeCost{50.0, 1e5});
  }
};

TEST(Rendezvous, AllThreeStrategiesComputeTheSameResult) {
  for (auto runner : {run_manual_copy, run_manual_pull, run_automatic}) {
    RendezvousWorld w;
    Result<Bytes> got{Errc::unavailable};
    RendezvousReport report;
    runner(*w.cluster, w.scenario,
           [&](Result<Bytes> r, const RendezvousReport& rep) {
             got = std::move(r);
             report = rep;
           });
    w.cluster->settle();
    ASSERT_TRUE(got) << report.strategy << ": " << got.error().to_string();
    BufReader r(*got);
    EXPECT_EQ(r.get_u64(), 246u) << report.strategy;
  }
}

TEST(Rendezvous, ManualCopyMovesTheMostBytes) {
  RendezvousWorld w1, w2, w3;
  RendezvousReport copy_rep, pull_rep, auto_rep;
  run_manual_copy(*w1.cluster, w1.scenario,
                  [&](Result<Bytes> r, const RendezvousReport& rep) {
                    ASSERT_TRUE(r);
                    copy_rep = rep;
                  });
  w1.cluster->settle();
  run_manual_pull(*w2.cluster, w2.scenario,
                  [&](Result<Bytes> r, const RendezvousReport& rep) {
                    ASSERT_TRUE(r);
                    pull_rep = rep;
                  });
  w2.cluster->settle();
  run_automatic(*w3.cluster, w3.scenario,
                [&](Result<Bytes> r, const RendezvousReport& rep) {
                  ASSERT_TRUE(r);
                  auto_rep = rep;
                });
  w3.cluster->settle();

  // Strategy 1 ships the model twice (Bob->Alice, Alice->Carol).
  EXPECT_GT(copy_rep.wire_bytes, pull_rep.wire_bytes * 3 / 2);
  EXPECT_GT(copy_rep.elapsed, pull_rep.elapsed);
  // The invoker's orchestration burden collapses under automatic.
  EXPECT_GT(copy_rep.invoker_frames, auto_rep.invoker_frames);
  // Automatic placement fled loaded Bob.
  EXPECT_NE(auto_rep.executor, w3.cluster->addr_of(1));
}

TEST(Rendezvous, AutomaticAdaptsWhenInvokerIsCapable) {
  // "Dave": the invoker itself is powerful and idle — automatic should
  // run locally, which NO fixed manual strategy can express (§5).
  RendezvousWorld w;
  w.cluster->profile(0).compute_ops_per_ns = 100.0;  // beefy Dave
  RendezvousReport rep;
  run_automatic(*w.cluster, w.scenario,
                [&](Result<Bytes> r, const RendezvousReport& rp) {
                  ASSERT_TRUE(r);
                  rep = rp;
                });
  w.cluster->settle();
  EXPECT_EQ(rep.executor, w.cluster->addr_of(0));
}

// --- prefetch policies ---------------------------------------------------------------

TEST(Prefetch, ReachabilityFollowsFot) {
  ObjectStore store;
  auto a = Object::create(ObjectId{1, 1}, 4096);
  ASSERT_TRUE(a);
  ASSERT_TRUE(a->add_fot_entry(ObjectId{1, 2}, Perm::read));
  ASSERT_TRUE(a->add_fot_entry(ObjectId{1, 3}, Perm::read));
  ReachabilityPrefetcher p(8);
  auto predicted = p.predict(*a, store);
  EXPECT_EQ(predicted.size(), 2u);
  // Budget respected:
  ReachabilityPrefetcher tight(1);
  EXPECT_EQ(tight.predict(*a, store).size(), 1u);
}

TEST(Prefetch, ReachabilitySkipsResident) {
  ObjectStore store;
  ASSERT_TRUE(store.create(ObjectId{1, 2}, 256));
  auto a = Object::create(ObjectId{1, 1}, 4096);
  ASSERT_TRUE(a);
  ASSERT_TRUE(a->add_fot_entry(ObjectId{1, 2}, Perm::read));
  ReachabilityPrefetcher p(8);
  EXPECT_TRUE(p.predict(*a, store).empty());
}

TEST(Prefetch, AdjacencyFollowsLayoutNotReferences) {
  ObjectStore store;
  std::vector<ObjectId> layout{{1, 1}, {1, 2}, {1, 3}, {1, 4}};
  auto a = Object::create(ObjectId{1, 1}, 4096);
  ASSERT_TRUE(a);
  // `a` references {1,4}, but adjacency blindly predicts {1,2},{1,3}.
  ASSERT_TRUE(a->add_fot_entry(ObjectId{1, 4}, Perm::read));
  AdjacencyPrefetcher p(layout, 2);
  auto predicted = p.predict(*a, store);
  ASSERT_EQ(predicted.size(), 2u);
  EXPECT_EQ(predicted[0], (ObjectId{1, 2}));
  EXPECT_EQ(predicted[1], (ObjectId{1, 3}));
}

TEST(Prefetch, FetcherIssuesPrefetches) {
  auto cluster = Cluster::build(small_cluster());
  // Chain a -> b on host 1; fetch a with reachability prefetch on host 0.
  auto a = cluster->create_object(1, 4096);
  auto b = cluster->create_object(1, 4096);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE((*a)->add_fot_entry((*b)->id(), Perm::read));
  cluster->settle();
  cluster->fetcher(0).set_prefetcher(
      std::make_shared<ReachabilityPrefetcher>(8));
  Status fetched{Errc::unavailable};
  cluster->fetcher(0).fetch((*a)->id(), [&](Status s) { fetched = s; });
  cluster->settle();
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_TRUE(cluster->host(0).store().contains((*b)->id()));  // prefetched
  EXPECT_GE(cluster->fetcher(0).counters().prefetches_issued, 1u);
}

// --- CRDT payloads in objects ---------------------------------------------------------

TEST(CrdtPayload, StoreMergeLoad) {
  auto cluster = Cluster::build(small_cluster());
  auto obj = cluster->create_object(0, 8192);
  ASSERT_TRUE(obj);
  auto off = (*obj)->alloc(1024);
  ASSERT_TRUE(off);

  GCounter mine;
  mine.increment(1, 5);
  ASSERT_TRUE(store_crdt_payload(*obj, *off, mine));

  GCounter theirs;
  theirs.increment(2, 7);
  auto merged = cluster->merge_crdt_payload(*obj, *off, theirs);
  ASSERT_TRUE(merged);
  EXPECT_EQ(merged->value(), 12u);

  auto loaded = load_crdt_payload<GCounter>(*obj, *off);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->value(), 12u);
}

TEST(CrdtPayload, SurvivesMovementAndMergesAtDestination) {
  auto cluster = Cluster::build(small_cluster());
  auto obj = cluster->create_object(0, 8192);
  ASSERT_TRUE(obj);
  auto off = (*obj)->alloc(1024);
  ASSERT_TRUE(off);
  ORSet set;
  set.add("alpha", 1, 1);
  ASSERT_TRUE(store_crdt_payload(*obj, *off, set));
  cluster->settle();

  Status moved{Errc::unavailable};
  cluster->move_object((*obj)->id(), 0, 2, [&](Status s) { moved = s; });
  cluster->settle();
  ASSERT_TRUE(moved.is_ok());

  auto at_dst = cluster->host(2).store().get((*obj)->id());
  ASSERT_TRUE(at_dst);
  ORSet incoming;
  incoming.add("beta", 2, 1);
  auto merged = cluster->merge_crdt_payload(*at_dst, *off, incoming);
  ASSERT_TRUE(merged);
  EXPECT_EQ(merged->elements(), (std::set<std::string>{"alpha", "beta"}));
}

}  // namespace
}  // namespace objrpc
