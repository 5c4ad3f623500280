// Edge cache: a switch that answers object reads from its own SRAM.
//
// Because reads are object pulls the fabric can parse (not opaque RPC
// payloads), a switch on the path can cache hot objects and serve them
// without the home host ever seeing the request — and the home's write
// path invalidates the switch like any other copyset member, so a read
// is never stale.
//
//   ./build/examples/edge_cache
#include <cstdio>
#include <memory>

#include "core/cluster.hpp"
#include "inc/cache_stage.hpp"

using namespace objrpc;

int main() {
  std::printf("== objrpc edge cache ==\n\n");

  // 1. A controller-scheme deployment; the client is host 0, the object
  //    home is host 1, on different access switches.
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;
  cfg.fabric.seed = 7;
  auto cluster = Cluster::build(cfg);

  auto obj = cluster->create_object(/*host=*/1, /*size=*/8192);
  if (!obj) return 1;
  const ObjectId id = (*obj)->id();
  (void)(*obj)->write_u64(Object::kDataStart, 1111);
  cluster->settle();

  // 2. Attach a cache stage to the client's access switch and have the
  //    controller grant it an SRAM budget.  From here on the switch
  //    watches chunk traffic and admits keys that stay hot.
  SwitchNode& tor = cluster->fabric().switch_at(0);
  IncCacheStage cache(tor);
  if (cluster->checker()) cluster->checker()->attach_cache(cache);
  CacheGrant grant;
  grant.admit_threshold = 2;
  if (!cluster->fabric().controller()->enable_switch_cache(tor.id(), grant)) {
    return 1;
  }
  cluster->settle();

  // 3. Repeated fetches from host 0.  The first pulls from the home and
  //    trips the admission counter; the switch fills its copy; later
  //    fetches never leave the rack.
  auto fetch_once = [&](const char* tag) {
    const SimTime t0 = cluster->loop().now();
    const std::uint64_t home0 = cluster->fetcher(1).counters().chunks_served;
    cluster->fetcher(0).evict(id);
    cluster->fetcher(0).fetch(id, [&, tag, t0, home0](Status s) {
      if (!s) return;
      auto stored = cluster->host(0).store().get(id);
      const auto v = (*stored)->read_u64(Object::kDataStart);
      const std::uint64_t served =
          cluster->fetcher(1).counters().chunks_served - home0;
      std::printf("%-18s value=%llu  %s  home served %llu chunk req%s\n", tag,
                  static_cast<unsigned long long>(*v),
                  format_duration(cluster->loop().now() - t0).c_str(),
                  static_cast<unsigned long long>(served),
                  served == 1 ? "" : "s");
    });
    cluster->settle();
  };
  fetch_once("cold (home):");
  fetch_once("warm (switch):");

  // 4. The home writes the object.  The switch is a copyset member and
  //    is invalidated FIRST, so the next read misses, refills, and sees
  //    the new bytes — coherence lives in the infrastructure.
  cluster->service(1).write(GlobalPtr{id, Object::kDataStart},
                            [] {
                              BufWriter w;
                              w.put_u64(2222);
                              return std::move(w).take();
                            }(),
                            [](Status s, const AccessStats&) {
                              if (s) std::printf("home wrote value=2222\n");
                            });
  cluster->settle();
  fetch_once("after write:");

  std::printf("\nswitch cache: %llu hits, %llu admissions, %llu "
              "invalidations\n",
              static_cast<unsigned long long>(cache.counters().hits),
              static_cast<unsigned long long>(cache.counters().admissions),
              static_cast<unsigned long long>(cache.counters().invalidations));
  std::printf("Done. The warm read never reached the home, and the write "
              "made the switch\ncopy vanish before any host replica could "
              "go stale.\n");
  return 0;
}
