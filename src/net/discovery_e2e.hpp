// End-to-end (decentralized) discovery — the ARP analogue of §4.
//
// "Hosts store a destination cache, recording a map of object IDs and
// hosts, that it must use broadcast to discover on first access."  A
// cache hit sends the access straight to the remembered host (1 RTT
// total); a miss broadcasts a discover_req first and unicasts the access
// after the reply (2 RTTs, plus fabric-wide broadcast traffic — the
// overhead Fig. 2's right axis and Fig. 3's staleness sweep measure).
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "net/discovery.hpp"
#include "net/host_node.hpp"
#include "sim/deadline_timer.hpp"

namespace objrpc {

struct E2EConfig {
  /// Bound on cached locations (0 = unbounded); evicts FIFO.
  std::size_t cache_capacity = 0;
};

class E2EDiscovery final : public DiscoveryStrategy {
 public:
  E2EDiscovery(HostNode& host, E2EConfig cfg = {});

  const char* scheme_name() const override { return "e2e"; }
  void resolve(ObjectId object, ResolveCallback cb) override;
  void on_stale(ObjectId object, HostAddr stale_host) override;
  void on_redirect(ObjectId object, HostAddr home) override;
  void on_created(ObjectId) override {}   // peers answer discovers
  void on_arrived(ObjectId) override {}
  void on_departed(ObjectId) override {}
  std::uint64_t broadcasts_sent() const override { return broadcasts_; }

  /// Drop a cached location (models a host that KNOWS movement made its
  /// entry stale; the Fig. 3 workload uses this to turn accesses to
  /// moved objects into rediscoveries, per the paper's 1-to-2-RTT story).
  void invalidate(ObjectId object);
  /// Plant a cache entry directly (tests and warm-start tooling).
  void seed_cache(ObjectId object, HostAddr host) {
    cache_put(object, host);
  }
  bool is_cached(ObjectId object) const { return cache_.count(object) != 0; }
  std::size_t cache_size() const { return cache_.size(); }

  // fablint:allow(raw-counter) strategy object has no stable registry lifetime
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t staleness_evictions = 0;
    std::uint64_t discovery_failures = 0;
  };
  const Counters& counters() const { return counters_; }
  /// Rebroadcast deadlines, keyed by object.
  const DeadlineTimer<ObjectId>& deadline_timer() const { return timer_; }

 private:
  /// How long to wait for a discover_reply before rebroadcasting.
  static constexpr SimDuration kDiscoveryTimeout = 5 * kMillisecond;
  /// Broadcasts per discovery before its waiters fail.
  static constexpr int kMaxDiscoveryAttempts = 3;

  struct PendingDiscovery {
    std::vector<ResolveCallback> waiters;
    int attempts = 1;
  };

  void broadcast_discover(ObjectId object);
  /// No host replied in time: rebroadcast, or fail the waiters.
  void on_deadline(ObjectId object);
  void on_discover_reply(const Frame& f);
  void cache_put(ObjectId object, HostAddr host);

  HostNode& host_;
  E2EConfig cfg_;
  std::unordered_map<ObjectId, HostAddr> cache_;
  std::deque<ObjectId> cache_order_;  // FIFO eviction when bounded
  std::unordered_map<ObjectId, PendingDiscovery> pending_;
  DeadlineTimer<ObjectId> timer_;
  std::uint64_t broadcasts_ = 0;
  Counters counters_;
};

}  // namespace objrpc
