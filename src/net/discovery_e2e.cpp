#include "net/discovery_e2e.hpp"

#include <algorithm>

namespace objrpc {

E2EDiscovery::E2EDiscovery(HostNode& host, E2EConfig cfg)
    : host_(host),
      cfg_(cfg),
      timer_(host.event_loop(), host.id(),
             [this](ObjectId object) { on_deadline(object); }) {
  host_.set_handler(MsgType::discover_reply,
                    [this](const Frame& f) { on_discover_reply(f); });
}

void E2EDiscovery::resolve(ObjectId object, ResolveCallback cb) {
  auto it = cache_.find(object);
  if (it != cache_.end()) {
    ++counters_.hits;
    cb(ResolveOutcome{it->second, 0, false});
    return;
  }
  ++counters_.misses;
  auto [pit, fresh] = pending_.try_emplace(object);
  pit->second.waiters.push_back(std::move(cb));
  if (!fresh) return;  // a discovery is already in flight; coalesce
  broadcast_discover(object);
  timer_.arm(object, kDiscoveryTimeout);
}

void E2EDiscovery::broadcast_discover(ObjectId object) {
  ++broadcasts_;
  Frame f;
  f.type = MsgType::discover_req;
  f.flags = kFlagBroadcast;
  f.object = object;
  host_.send_frame(std::move(f));
}

void E2EDiscovery::on_deadline(ObjectId object) {
  // on_discover_reply disarms, so a live deadline's discovery is pending.
  auto it = pending_.find(object);
  if (++it->second.attempts > kMaxDiscoveryAttempts) {
    ++counters_.discovery_failures;
    auto waiters = std::move(it->second.waiters);
    pending_.erase(it);
    for (auto& w : waiters) {
      w(Error{Errc::not_found, "discovery failed: no host replied"});
    }
    return;
  }
  broadcast_discover(object);
  timer_.arm(object, kDiscoveryTimeout);
}

void E2EDiscovery::on_discover_reply(const Frame& f) {
  cache_put(f.object, f.src_host);
  auto it = pending_.find(f.object);
  // Unsolicited (e.g. a second replica answered later): cache refreshed.
  if (it == pending_.end()) return;
  auto waiters = std::move(it->second.waiters);
  pending_.erase(it);
  timer_.disarm(f.object);
  for (auto& w : waiters) {
    w(ResolveOutcome{f.src_host, 1, true});
  }
}

void E2EDiscovery::cache_put(ObjectId object, HostAddr host) {
  auto it = cache_.find(object);
  if (it != cache_.end()) {
    it->second = host;
    return;
  }
  if (cfg_.cache_capacity != 0 && cache_.size() >= cfg_.cache_capacity) {
    // FIFO eviction.
    while (!cache_order_.empty()) {
      const ObjectId victim = cache_order_.front();
      cache_order_.pop_front();
      if (cache_.erase(victim) > 0) break;
    }
  }
  cache_.emplace(object, host);
  cache_order_.push_back(object);
}

void E2EDiscovery::on_stale(ObjectId object, HostAddr stale_host) {
  auto it = cache_.find(object);
  if (it != cache_.end() && it->second == stale_host) {
    ++counters_.staleness_evictions;
    cache_.erase(it);
  }
}

void E2EDiscovery::on_redirect(ObjectId object, HostAddr home) {
  cache_put(object, home);
}

void E2EDiscovery::invalidate(ObjectId object) {
  if (cache_.erase(object) > 0) {
    ++counters_.staleness_evictions;
  }
}

}  // namespace objrpc
