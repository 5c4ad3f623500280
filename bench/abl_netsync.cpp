// ABL-NETSYNC — offloading synchronization to the network (§5).
//
//   "We will experiment with offloading some synchronization and
//    arbitration concerns to the programmable network (which now
//    functions somewhat as a memory bus), letting us explore the
//    consistency and coherence space together."
//
// A contended counter lives on one host; every other host hammers it
// with atomic fetch-adds.  Two configurations:
//
//   host-served    — every atomic crosses the fabric to the home.
//   switch-served  — ONE switch (the home's access switch, which every
//                    request path crosses) owns the register and answers
//                    in the pipeline; a single arbiter keeps the counter
//                    sequentially consistent.
//
// Reported: per-op latency, total completion time, and how many requests
// the home host had to absorb — the hotspot relief in-network arbitration
// buys, at identical correctness (the final count is exact either way).
#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "net/netsync.hpp"

using namespace objrpc;
using namespace objrpc::bench;

namespace {

struct RunResult {
  LatencySummary lat_us;
  double total_ms = 0;
  double home_served = 0;
  double switch_served = 0;
  std::uint64_t final_count = 0;
};

RunResult run(bool offload, int clients, int ops_per_client,
              std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;
  cfg.fabric.seed = seed;
  cfg.fabric.num_hosts = static_cast<std::size_t>(clients) + 1;
  auto cluster = Cluster::build(cfg);
  // The counter word lives on the last host.
  const std::size_t home = static_cast<std::size_t>(clients);
  auto obj = cluster->create_object(home, 4096);
  if (!obj) std::abort();
  auto off = (*obj)->alloc(8);
  if (!off) std::abort();
  (void)(*obj)->write_u64(*off, 0);
  const GlobalPtr word{(*obj)->id(), *off};
  cluster->settle();

  std::unique_ptr<SyncOffload> sync;
  if (offload) {
    // The arbiter must sit on every path to the home — its access
    // switch (hosts attach round-robin across switches).
    const std::size_t home_switch =
        home % cluster->fabric().switch_count();
    sync = std::make_unique<SyncOffload>(
        cluster->fabric().switch_at(home_switch));
    sync->claim(word.object, word.offset, 0);
  }

  SampleSet lat_us;
  int outstanding = clients * ops_per_client;
  const SimTime t0 = cluster->loop().now();
  SimTime t_end = t0;
  // Completions arrive on whichever shard ran the response: record them
  // through the observer journal (inline when serial, replayed in
  // canonical order at the barrier in a parallel epoch).
  obs::ShardJournal& journal = cluster->fabric().network().observer_journal();
  // Every client fires all its ops concurrently (max contention).
  for (int c = 0; c < clients; ++c) {
    for (int i = 0; i < ops_per_client; ++i) {
      cluster->service(static_cast<std::size_t>(c))
          .atomic_fetch_add(
              word, 1,
              [&](Result<AtomicResponse> r, const AccessStats& s) {
                if (!r) std::abort();
                journal.run_or_defer([&, us = to_micros(s.elapsed())] {
                  lat_us.add(us);
                  if (--outstanding == 0) t_end = cluster->loop().now();
                });
              });
    }
  }
  cluster->settle();
  if (outstanding != 0) std::abort();

  RunResult res;
  res.lat_us = LatencySummary::of(lat_us);
  res.total_ms = to_millis(t_end - t0);
  res.home_served =
      static_cast<double>(cluster->service(home).counters().atomics_served);
  res.switch_served =
      sync ? static_cast<double>(sync->counters().served) : 0.0;
  // Correctness: the count is exact wherever it ended up.
  if (sync) {
    res.final_count = *sync->release(word.object, word.offset);
  } else {
    auto stored = cluster->host(home).store().get(word.object);
    res.final_count = *(*stored)->read_u64(word.offset);
  }
  return res;
}

}  // namespace

int main() {
  std::printf("ABL-NETSYNC: contended atomic counter, host-served vs "
              "in-network arbitration\n\n");
  Table table({"clients", "ops_each", "mode", "mean_us", "p50_us", "p99_us",
               "total_ms", "home_reqs", "sw_reqs", "count_ok"});
  for (int clients : {2, 4, 7}) {
    for (int ops : {50}) {
      const RunResult host_run =
          run(false, clients, ops, 1000 + static_cast<std::uint64_t>(clients));
      const RunResult sw_run =
          run(true, clients, ops, 1000 + static_cast<std::uint64_t>(clients));
      const auto expect =
          static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(ops);
      table.row({static_cast<double>(clients), static_cast<double>(ops), 0,
                 host_run.lat_us.mean, host_run.lat_us.p50, host_run.lat_us.p99,
                 host_run.total_ms, host_run.home_served,
                 host_run.switch_served,
                 host_run.final_count == expect ? 1.0 : 0.0});
      table.row({static_cast<double>(clients), static_cast<double>(ops), 1,
                 sw_run.lat_us.mean, sw_run.lat_us.p50, sw_run.lat_us.p99,
                 sw_run.total_ms, sw_run.home_served, sw_run.switch_served,
                 sw_run.final_count == expect ? 1.0 : 0.0});
    }
  }
  std::printf("\n(mode: 0=host-served, 1=switch-served)\n");
  std::printf("series: in-network arbitration cuts per-op latency (shorter "
              "path, no host\nprocessing) and drops the home host's request "
              "load to zero, with the identical\nexact count — §5's "
              "'network as memory bus' in miniature.\n");
  return 0;
}
