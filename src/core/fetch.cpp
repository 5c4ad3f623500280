#include "core/fetch.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace objrpc {

ObjectFetcher::ObjectFetcher(ObjNetService& service)
    : service_(service),
      timer_(service.host().event_loop(), service.host().id(),
             [this](ObjectId id) { on_deadline(id); }) {
  HostNode& host = service_.host();
  host.set_handler(MsgType::chunk_req,
                   [this](const Frame& f) { on_chunk_req(f); });
  host.set_handler(MsgType::chunk_resp,
                   [this](const Frame& f) { on_chunk_resp(f); });
  host.set_handler(MsgType::invalidate_ack,
                   [this](const Frame& f) { on_invalidate_ack(f); });
  metrics_.attach(host.metrics(), host.name() + "/fetch");
  metrics_.add("fetches_started", [this] { return counters_.fetches_started; });
  metrics_.add("fetches_completed",
               [this] { return counters_.fetches_completed; });
  metrics_.add("fetches_failed", [this] { return counters_.fetches_failed; });
  metrics_.add("already_local", [this] { return counters_.already_local; });
  metrics_.add("chunks_requested",
               [this] { return counters_.chunks_requested; });
  metrics_.add("chunks_served", [this] { return counters_.chunks_served; });
  metrics_.add("bytes_pulled", [this] { return counters_.bytes_pulled; });
  metrics_.add("prefetches_issued",
               [this] { return counters_.prefetches_issued; });
  metrics_.add("invalidates_sent",
               [this] { return counters_.invalidates_sent; });
  metrics_.add("invalidates_received",
               [this] { return counters_.invalidates_received; });
  metrics_.add("evictions", [this] { return counters_.evictions; });
  metrics_.add("stale_rejects", [this] { return counters_.stale_rejects; });
  metrics_.add("timeout_rediscoveries",
               [this] { return counters_.timeout_rediscoveries; });
}

void ObjectFetcher::invalidate_copyset(ObjectId id, std::uint32_t epoch) {
  auto it = copysets_.find(id);
  if (it == copysets_.end()) return;
  // Version that obsoleted the replicas: the post-write counter.
  std::uint64_t version = 0;
  if (const ObjectPtr* obj = service_.host().store().find(id)) {
    version = (*obj)->version();
  }
  // Switch cache agents sit on the read path between us and every host
  // replica — invalidate them FIRST, so a host that re-fetches cannot
  // be answered by a not-yet-invalidated switch holding the old image.
  // Sorting within each class keeps the wire order independent of the
  // copyset's hash layout (seeded replay determinism).
  std::vector<HostAddr> members(it->second.begin(), it->second.end());
  std::sort(members.begin(), members.end(), [](HostAddr a, HostAddr b) {
    const bool ca = is_inc_cache_addr(a), cb = is_inc_cache_addr(b);
    if (ca != cb) return ca;
    return a < b;
  });
  for (HostAddr member : members) {
    ++counters_.invalidates_sent;
    Frame inv;
    inv.type = MsgType::invalidate;
    inv.dst_host = member;
    inv.object = id;
    inv.obj_version = version;
    inv.epoch = epoch;
    service_.host().send_frame(std::move(inv));
  }
  copysets_.erase(it);
}

void ObjectFetcher::fetch(ObjectId id, FetchCallback cb) {
  if (service_.host().store().contains(id)) {
    ++counters_.already_local;
    if (cb) cb(Status::ok());
    return;
  }
  auto [it, fresh] = pending_.try_emplace(id);
  if (cb) it->second.waiters.push_back(std::move(cb));
  if (!fresh) return;  // coalesce concurrent fetches
  ++counters_.fetches_started;
  // Root of the fetch's span tree.  Ids come from unconditional
  // deterministic counters (wire bytes identical armed or not); the
  // span record itself only exists when the tracer is armed.
  obs::Tracer& tracer = service_.host().tracer();
  it->second.trace.trace = tracer.new_trace_id(service_.host().id());
  it->second.trace.parent = tracer.new_span_id(service_.host().id());
  if (tracer.armed()) {
    tracer.begin_span(it->second.trace.parent, it->second.trace.trace, 0,
                      service_.host().id(), "fetch:" + id.to_string(),
                      service_.host().event_loop().now());
  }
  start(id);
}

void ObjectFetcher::start(ObjectId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingFetch& pf = it->second;
  if (++pf.attempts > kMaxAttempts) {
    complete(id, Error{Errc::timeout, "fetch attempts exhausted"});
    return;
  }
  pf.total_size = 0;
  pf.buffer.clear();
  pf.outstanding_chunks.clear();
  pf.version = 0;  // re-lock onto whatever version the next stat reports
  timer_.disarm(id);
  const std::uint64_t generation = ++pf.generation;
  service_.discovery().resolve(id, [this, id,
                                    generation](Result<ResolveOutcome> out) {
    auto it2 = pending_.find(id);
    if (it2 == pending_.end() || it2->second.generation != generation) return;
    if (!out) {
      complete(id, out.error());
      return;
    }
    it2->second.source = out->dst;
    send_chunk_req(id, it2->second, 0, 0);  // stat
    timer_.arm(id, kTimeout);
  });
}

void ObjectFetcher::on_deadline(ObjectId id) {
  // The locked-on source went quiet (crashed home, cut link).  Report
  // it stale so the retry's resolve steers at a live copy instead of
  // the same dead address.  (start and complete disarm, so a live
  // deadline's pull is pending.)
  const HostAddr source = pending_.at(id).source;
  if (source != kUnspecifiedHost) {
    ++counters_.timeout_rediscoveries;
    service_.discovery().on_stale(id, source);
  }
  start(id);  // retry from scratch
}

void ObjectFetcher::send_chunk_req(ObjectId id, const PendingFetch& pf,
                                   std::uint64_t offset,
                                   std::uint32_t length) {
  Frame f;
  f.type = MsgType::chunk_req;
  f.dst_host = pf.source;
  f.object = id;
  f.seq = next_seq_++;
  f.offset = offset;
  f.length = length;
  f.trace = pf.trace;
  service_.host().send_frame(std::move(f));
}

void ObjectFetcher::on_chunk_req(const Frame& f) {
  auto obj = service_.host().store().get(f.object);
  Frame resp;
  resp.type = MsgType::chunk_resp;
  resp.dst_host = f.src_host;
  resp.object = f.object;
  resp.seq = f.seq;
  resp.trace = f.trace;  // the reply stays in the requester's trace
  if (!obj || !service_.may_serve_read(f.object)) {
    // Absent — or present but quarantined (a revived home mid-recovery
    // must not hand out possibly pre-promotion bytes).
    resp.offset = kChunkNotHere;
    service_.host().send_frame(std::move(resp));
    return;
  }
  ++counters_.chunks_served;
  if (obs::Tracer& tracer = service_.host().tracer();
      tracer.armed() && f.trace.valid()) {
    tracer.instant(f.trace.trace, f.trace.parent, service_.host().id(),
                   f.length == 0 ? "serve_stat" : "serve_chunk",
                   service_.host().event_loop().now());
  }
  fill_chunk_reply(resp, f, (*obj)->raw_bytes(), (*obj)->version());
  // The requester now holds (part of) a replica: track for invalidation.
  copysets_[f.object].insert(f.src_host);
  service_.host().send_frame(std::move(resp));
}

void ObjectFetcher::on_chunk_resp(const Frame& f) {
  auto it = pending_.find(f.object);
  if (it == pending_.end()) return;  // stale / duplicate
  PendingFetch& pf = it->second;
  if (f.offset == kChunkNotHere) {
    // Stale location knowledge; tell discovery and retry.
    service_.discovery().on_stale(f.object, f.src_host);
    start(f.object);
    return;
  }
  if (f.length == 0 && pf.total_size == 0) {
    // stat reply.
    if (f.offset == 0) {
      complete(f.object, Error{Errc::malformed, "empty object image"});
      return;
    }
    if (f.obj_version < pf.version_floor) {
      // The responder (typically a switch cache that raced our write
      // invalidate) is offering a version we know is obsolete.  Ignore
      // it; the retry timer re-resolves toward a fresh source.
      ++counters_.stale_rejects;
      return;
    }
    pf.total_size = f.offset;
    pf.buffer.assign(pf.total_size, 0);
    pf.source = f.src_host;  // lock onto whoever answered
    pf.version = f.obj_version;
    for (std::uint64_t off = 0; off < pf.total_size; off += kChunkBytes) {
      pf.outstanding_chunks.insert(off);
      ++counters_.chunks_requested;
      send_chunk_req(f.object, pf, off,
                     static_cast<std::uint32_t>(std::min<std::uint64_t>(
                         kChunkBytes, pf.total_size - off)));
    }
    return;
  }
  // Data chunk.
  if (pf.buffer.empty() || f.offset + f.payload.size() > pf.buffer.size()) {
    return;  // out-of-protocol; ignore
  }
  if (f.obj_version != pf.version) {
    // Torn read: this chunk belongs to a different image version than
    // the stat locked onto (a write landed mid-pull).  Dropping it keeps
    // the chunk outstanding; the timer restarts the pull from scratch.
    ++counters_.stale_rejects;
    return;
  }
  if (pf.outstanding_chunks.erase(f.offset) == 0) return;  // duplicate
  std::copy(f.payload.begin(), f.payload.end(),
            pf.buffer.begin() + static_cast<std::ptrdiff_t>(f.offset));
  counters_.bytes_pulled += f.payload.size();
  if (!pf.outstanding_chunks.empty()) return;

  if (pf.version < pf.version_floor) {
    // Defence in depth: an invalidate raised the floor after this pull
    // locked its version.  Adopting now would resurrect the stale
    // replica the writer just killed — restart instead.
    ++counters_.stale_rejects;
    start(f.object);
    return;
  }
  // All chunks in: adopt as a cached replica.  This is the entire
  // "deserialization": header validation of a byte image.
  auto obj = Object::from_bytes(f.object, std::move(pf.buffer));
  if (!obj) {
    complete(f.object, obj.error());
    return;
  }
  if (Status s = service_.host().store().insert(std::move(*obj)); !s) {
    complete(f.object, s);
    return;
  }
  cached_.insert(f.object);
  if (adopt_observer_) adopt_observer_(f.object, pf.version);
  auto stored = service_.host().store().get(f.object);
  complete(f.object, Status::ok());
  if (stored) run_prefetch(**stored);
}

void ObjectFetcher::run_prefetch(const Object& fetched) {
  if (!prefetcher_) return;
  for (ObjectId next :
       prefetcher_->predict(fetched, service_.host().store())) {
    if (pending_.count(next)) continue;
    ++counters_.prefetches_issued;
    fetch(next, nullptr);
  }
}

void ObjectFetcher::complete(ObjectId id, Status s) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  auto waiters = std::move(it->second.waiters);
  if (obs::Tracer& tracer = service_.host().tracer(); tracer.armed()) {
    const obs::TraceContext trace = it->second.trace;
    const SimTime now = service_.host().event_loop().now();
    if (!s) {
      tracer.instant(trace.trace, trace.parent, service_.host().id(),
                     "fetch_failed", now);
    }
    tracer.end_span(trace.parent, now);
  }
  pending_.erase(it);
  timer_.disarm(id);
  if (s) {
    ++counters_.fetches_completed;
  } else {
    ++counters_.fetches_failed;
  }
  for (auto& w : waiters) {
    if (w) w(s);
  }
}

void ObjectFetcher::accept_invalidate(const Frame& f) {
  ++counters_.invalidates_received;
  evict(f.object);
  // A fetch in flight is pulling the very image this invalidate just
  // obsoleted.  Raise the floor past it (unversioned invalidates
  // obsolete whatever version we locked) and restart through discovery;
  // straggler chunk_resps from the stale pull fail the version guards.
  if (auto it = pending_.find(f.object); it != pending_.end()) {
    PendingFetch& pf = it->second;
    const std::uint64_t floor =
        std::max<std::uint64_t>(f.obj_version, pf.version + 1);
    if (floor > pf.version_floor) pf.version_floor = floor;
    start(f.object);
  }
  Frame ack;
  ack.type = MsgType::invalidate_ack;
  ack.dst_host = f.src_host;
  ack.object = f.object;
  ack.seq = f.seq;
  ack.trace = f.trace;  // stay in the invalidate wave's trace
  service_.host().send_frame(std::move(ack));
}

void ObjectFetcher::on_invalidate_ack(const Frame&) {
  // Counted implicitly via invalidates_sent; nothing further to do in
  // the lite protocol (no blocking on acknowledgements).
}

void ObjectFetcher::evict(ObjectId id) {
  if (cached_.erase(id) > 0) {
    ++counters_.evictions;
    (void)service_.host().store().remove(id);
  }
}

std::size_t ObjectFetcher::copyset_size(ObjectId id) const {
  auto it = copysets_.find(id);
  return it == copysets_.end() ? 0 : it->second.size();
}

}  // namespace objrpc
