#include "sim/fair_queue.hpp"

#include <algorithm>

namespace objrpc {

void EgressScheduler::notify(FqEvent::Kind kind, PortId port,
                             std::uint32_t tenant, std::uint64_t bytes,
                             const PortState& ps) const {
  if (observers_.empty()) return;
  FqEvent ev;
  ev.kind = kind;
  ev.port = port;
  ev.tenant = tenant;
  ev.bytes = bytes;
  ev.active_tenants = static_cast<std::uint32_t>(ps.rotation.size());
  for (const auto& obs : observers_) obs(ev);
}

EgressScheduler::PortState& EgressScheduler::port_state(PortId port) {
  if (port >= ports_.size()) ports_.resize(port + 1);
  return ports_[port];
}

void EgressScheduler::enqueue(PortId port, Packet pkt) {
  PortState& ps = port_state(port);
  TenantQueue& tq = ps.tenants[pkt.tenant];
  const std::uint64_t size = pkt.wire_size();
  if (cfg_.tenant_queue_bytes != 0 &&
      tq.queued_bytes + size > cfg_.tenant_queue_bytes) {
    ++counters_.dropped_queue;
    notify(FqEvent::Kind::dropped, port, pkt.tenant, size, ps);
    return;
  }
  ++counters_.enqueued;
  tq.queued_bytes += size;
  backlog_bytes_ += size;
  const std::uint32_t tenant = pkt.tenant;
  tq.frames.push_back(std::move(pkt));
  if (!tq.active) {
    tq.active = true;
    tq.deficit = 0;
    ps.rotation.push_back(tenant);
    notify(FqEvent::Kind::activated, port, tenant, size, ps);
  }
  if (!ps.draining) {
    ps.draining = true;
    // The previous chain may have ended with a frame still on the wire;
    // restarting at +0 would stack this one behind it in the link FIFO.
    const SimTime now = loop_.now();
    schedule_drain(port,
                   ps.link_free_at > now ? ps.link_free_at - now : 0);
  }
}

void EgressScheduler::schedule_drain(PortId port, SimDuration after) {
  loop_.schedule_after(after, [this, port] { drain(port); });
}

void EgressScheduler::drain(PortId port) {
  PortState& ps = port_state(port);
  if (ps.rotation.empty()) {
    ps.draining = false;
    return;
  }
  // Serve the front tenant: grant its quantum once per visit, then send
  // frames while the deficit covers them.  One frame per drain event —
  // the next drain lands when this frame's serialization finishes, so
  // the scheduler (not the link FIFO) holds the backlog.
  const std::uint32_t tenant = ps.rotation.front();
  TenantQueue& tq = ps.tenants[tenant];
  if (!ps.front_granted) {
    tq.deficit += cfg_.quantum_bytes;
    ++counters_.rounds;
    ps.front_granted = true;
    notify(FqEvent::Kind::grant, port, tenant, tq.deficit, ps);
  }
  const std::uint64_t size = tq.frames.front().wire_size();
  if (tq.deficit >= size) {
    Packet pkt = std::move(tq.frames.front());
    tq.frames.pop_front();
    tq.deficit -= size;
    tq.queued_bytes -= size;
    backlog_bytes_ -= size;
    ++counters_.sent;
    sent_bytes_by_tenant_[tenant] += size;
    notify(FqEvent::Kind::sent, port, tenant, size, ps);
    if (tq.frames.empty()) {
      // DRR: a tenant that drains keeps no credit across idle periods.
      tq.deficit = 0;
      tq.active = false;
      ps.rotation.pop_front();
      ps.front_granted = false;
      notify(FqEvent::Kind::drained, port, tenant, 0, ps);
    }
    const SimDuration tx = tx_time_(port, size);
    ps.link_free_at = loop_.now() + tx;
    emit_(port, std::move(pkt));
    if (ps.rotation.empty()) {
      ps.draining = false;
      return;
    }
    schedule_drain(port, tx);
    return;
  }
  // Deficit exhausted with frames still queued: rotate to the back and
  // serve the next tenant immediately (no wire time was consumed).
  ps.rotation.pop_front();
  ps.rotation.push_back(tenant);
  ps.front_granted = false;
  notify(FqEvent::Kind::rotated, port, tenant, tq.deficit, ps);
  schedule_drain(port, 0);
}

std::uint64_t EgressScheduler::tenant_sent_bytes(std::uint32_t tenant) const {
  const std::uint64_t* bytes = sent_bytes_by_tenant_.find(tenant);
  return bytes == nullptr ? 0 : *bytes;
}

bool TokenBucketGate::admit(std::uint32_t tenant, std::uint64_t wire_bytes,
                            SimTime at) {
  auto rit = cfg_.tenant_rates.find(tenant);
  if (rit == cfg_.tenant_rates.end() || rit->second.bytes_per_sec <= 0.0) {
    ++counters_.admitted;
    return true;
  }
  const TenantRate& rate = rit->second;
  Bucket& b = buckets_[tenant];
  const SimTime now = at;
  if (!b.primed) {
    b.primed = true;
    b.tokens = static_cast<double>(rate.burst_bytes);
    b.refilled_at = now;
  } else if (now > b.refilled_at) {
    const double elapsed_s =
        static_cast<double>(now - b.refilled_at) / 1e9;
    b.tokens = std::min(static_cast<double>(rate.burst_bytes),
                        b.tokens + elapsed_s * rate.bytes_per_sec);
    b.refilled_at = now;
  }
  if (b.tokens >= static_cast<double>(wire_bytes)) {
    b.tokens -= static_cast<double>(wire_bytes);
    ++counters_.admitted;
    return true;
  }
  ++counters_.dropped;
  ++dropped_by_tenant_[tenant];
  return false;
}

std::uint64_t TokenBucketGate::dropped_for(std::uint32_t tenant) const {
  const std::uint64_t* n = dropped_by_tenant_.find(tenant);
  return n == nullptr ? 0 : *n;
}

}  // namespace objrpc
