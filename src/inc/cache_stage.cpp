#include "inc/cache_stage.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace objrpc {

IncCacheStage::IncCacheStage(SwitchNode& sw)
    : switch_(sw), next_hook_(sw.pre_match_hook()) {
  // The base hook (learning, dedup, controller programming) runs FIRST,
  // so the switch keeps learning requester ports before we intercept.
  switch_.set_pre_match_hook(
      [this](SwitchNode& s, PortId in_port, const Packet& pkt) {
        if (next_hook_ && next_hook_(s, in_port, pkt)) return true;
        return handle(s, in_port, pkt);
      });
  metrics_.attach(sw.metrics(), sw.name() + "/inc");
  metrics_.add("admissions", [this] { return counters_.admissions; });
  metrics_.add("hits", [this] { return counters_.hits; });
  metrics_.add("misses", [this] { return counters_.misses; });
  metrics_.add("invalidations", [this] { return counters_.invalidations; });
  metrics_.add("invalidates_forwarded",
               [this] { return counters_.invalidates_forwarded; });
  metrics_.add("evictions", [this] { return counters_.evictions; });
  metrics_.add("stale_rejects", [this] { return counters_.stale_rejects; });
  metrics_.add("fills_started", [this] { return counters_.fills_started; });
  metrics_.add("fills_aborted", [this] { return counters_.fills_aborted; });
  metrics_.add("bytes_cached", [this] { return bytes_cached_; });
}

void IncCacheStage::grant(CacheGrant grant) {
  grant_ = grant;
  // A tighter budget takes effect immediately: shed coldest-first.
  while (!lru_.empty() && bytes_cached_ > grant_->sram_budget_bytes) {
    ++counters_.evictions;
    drop_entry(lru_.back());
  }
}

void IncCacheStage::revoke() {
  grant_.reset();
  counters_.evictions += entries_.size();
  entries_.clear();
  lru_.clear();
  bytes_cached_ = 0;
  counters_.fills_aborted += fills_.size();
  fills_.clear();
  // readers_ and floors_ survive: the home still counts us in its
  // copysets, and we still owe invalidate forwarding to everyone we
  // served while the privilege was live.
}

std::optional<std::uint64_t> IncCacheStage::entry_version(ObjectId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second.version;
}

bool IncCacheStage::handle(SwitchNode& sw, PortId in_port, const Packet& pkt) {
  auto view = Frame::peek(pkt);
  if (!view) return false;

  // In-band management: the controller sends these over its direct link,
  // so only the granted switch ever sees them.
  if (view->type == MsgType::ctrl_cache_grant) {
    auto frame = Frame::decode(pkt.data);
    if (frame) {
      if (auto g = decode_cache_grant(frame->payload)) {
        grant(*g);
      } else {
        Log::warn("inc", "%s: malformed cache grant", sw.name().c_str());
      }
    }
    return true;
  }
  if (view->type == MsgType::ctrl_cache_revoke) {
    revoke();
    return true;
  }

  // Frames addressed to the cache agent itself.  Consumed even when the
  // privilege is revoked: direct requests from clients still locked onto
  // us need a not-here answer, and coherence traffic must keep flowing.
  if (view->dst_host == addr()) {
    auto frame = Frame::decode(pkt.data);
    if (!frame) return true;  // ours, but malformed: swallow
    switch (frame->type) {
      case MsgType::chunk_resp:
        on_fill_resp(*frame, in_port);
        break;
      case MsgType::chunk_req:
        on_direct_req(*frame, in_port);
        break;
      case MsgType::invalidate:
        on_invalidate(*frame, in_port);
        break;
      case MsgType::invalidate_ack:
        break;  // a served reader acknowledging our forward: absorbed
      default:
        break;  // nothing else is addressed to a cache agent
    }
    return true;
  }

  // Transit traffic.  Only object reads interest us, only while granted,
  // and never another cache agent's fill (fills are served by homes).
  if (!grant_ || view->type != MsgType::chunk_req) return false;
  if (is_inc_cache_addr(view->src_host)) return false;
  auto frame = Frame::decode(pkt.data);
  if (!frame) return false;
  auto it = entries_.find(frame->object);
  if (it != entries_.end()) {
    ++counters_.hits;
    serve(*frame, in_port, it->second);
    return true;
  }
  ++counters_.misses;
  const SimTime now = switch_.event_loop().now();
  if (hotkeys_.record(frame->object, now) >= grant_->admit_threshold) {
    maybe_start_fill(*frame, in_port);
  }
  return false;  // miss: forward toward the home as usual
}

void IncCacheStage::on_direct_req(const Frame& req, PortId in_port) {
  auto it = entries_.find(req.object);
  if (it != entries_.end()) {
    ++counters_.hits;
    serve(req, in_port, it->second);
    return;
  }
  // A requester locked onto us but the entry is gone (invalidated or
  // evicted mid-pull).  Tell it we no longer hold the object so it
  // restarts through discovery instead of timing out.
  ++counters_.misses;
  Frame resp;
  resp.type = MsgType::chunk_resp;
  resp.src_host = addr();
  resp.dst_host = req.src_host;
  resp.object = req.object;
  resp.seq = req.seq;
  resp.offset = kChunkNotHere;
  resp.trace = req.trace;
  switch_emit(switch_, resp, in_port);
}

void IncCacheStage::serve(const Frame& req, PortId in_port, Entry& entry) {
  // Touch: most recently used.
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);

  Frame resp;
  resp.type = MsgType::chunk_resp;
  resp.src_host = addr();  // the requester locks onto US for the pull
  resp.dst_host = req.src_host;
  resp.object = req.object;
  resp.seq = req.seq;
  resp.trace = req.trace;  // the reply stays in the requester's trace
  if (switch_.tracer().armed() && req.trace.valid()) {
    switch_.tracer().instant(req.trace.trace, req.trace.parent, switch_.id(),
                             "inc_hit", switch_.event_loop().now());
  }
  fill_chunk_reply(resp, req, entry.image, entry.version);
  // The requester now holds (part of) a replica the home knows nothing
  // about; WE owe it the invalidate when the home invalidates us.
  readers_[req.object].insert(req.src_host);
  switch_emit(switch_, resp, in_port);
}

void IncCacheStage::maybe_start_fill(const Frame& req, PortId in_port) {
  if (fills_.count(req.object) != 0) return;  // already in flight
  ++counters_.fills_started;
  Fill fill;
  fill.stat_seq = next_seq_++;
  fills_.emplace(req.object, fill);
  // Stat the object from our own address: the home's reply routes back
  // here, and our chunk_reqs enroll this agent in the home's copyset.
  Frame stat;
  stat.type = MsgType::chunk_req;
  stat.src_host = addr();
  stat.dst_host = req.dst_host;  // explicit home, or 0 = identity-routed
  stat.object = req.object;
  stat.seq = fill.stat_seq;
  stat.length = 0;
  stat.trace = req.trace;  // the fill is caused by this request
  switch_emit(switch_, stat, in_port);
}

void IncCacheStage::on_fill_resp(const Frame& f, PortId in_port) {
  auto it = fills_.find(f.object);
  if (it == fills_.end()) return;  // aborted fill or stray reply
  Fill& fill = it->second;

  if (!fill.data_requested) {
    if (f.seq != fill.stat_seq) return;
    // Stat leg: learn the size, vet it against the privilege.
    if (f.offset == kChunkNotHere || f.offset == 0) {
      abort_fill(f.object);
      return;
    }
    if (!grant_ || f.offset > grant_->max_entry_bytes ||
        entry_cost(f.offset) > grant_->sram_budget_bytes) {
      abort_fill(f.object);
      return;
    }
    if (f.obj_version < floor_of(f.object)) {
      // The stat raced a write we were already told about.
      ++counters_.stale_rejects;
      abort_fill(f.object);
      return;
    }
    fill.size = f.offset;
    fill.data_seq = next_seq_++;
    fill.data_requested = true;
    // Pull the whole image in one ranged read from whoever answered.
    Frame pull;
    pull.type = MsgType::chunk_req;
    pull.src_host = addr();
    pull.dst_host = f.src_host;
    pull.object = f.object;
    pull.seq = fill.data_seq;
    pull.offset = 0;
    pull.length = static_cast<std::uint32_t>(fill.size);
    pull.trace = f.trace;  // continue the fill's causal chain
    switch_emit(switch_, pull, in_port);
    return;
  }

  if (f.seq != fill.data_seq) return;
  if (f.offset == kChunkNotHere || f.offset != 0 ||
      f.payload.size() != fill.size) {
    abort_fill(f.object);  // home lost the object or the image changed
    return;
  }
  if (f.obj_version < floor_of(f.object)) {
    // THE stale-fill race: this image left the home before a write whose
    // invalidate already reached us.  Admitting it would serve the old
    // version forever — reject it.  The key is still hot; a fresh fill
    // will start on the next miss.
    ++counters_.stale_rejects;
    abort_fill(f.object);
    return;
  }
  const std::uint64_t version = f.obj_version;
  Bytes image = f.payload;
  fills_.erase(it);
  if (!grant_) return;  // revoked while the fill was in flight
  admit(f.object, std::move(image), version);
}

void IncCacheStage::admit(ObjectId id, Bytes image, std::uint64_t version) {
  if (entries_.count(id) != 0) drop_entry(id);  // refresh in place
  const std::uint64_t cost = entry_cost(image.size());
  while (!lru_.empty() && bytes_cached_ + cost > grant_->sram_budget_bytes) {
    ++counters_.evictions;
    drop_entry(lru_.back());
  }
  if (bytes_cached_ + cost > grant_->sram_budget_bytes) return;
  ++counters_.admissions;
  lru_.push_front(id);
  Entry entry;
  entry.image = std::move(image);
  entry.version = version;
  entry.lru_pos = lru_.begin();
  entries_.emplace(id, std::move(entry));
  bytes_cached_ += cost;
  hotkeys_.forget(id);  // admitted: release the counter bucket
  if (admit_observer_) admit_observer_(id, version);
}

void IncCacheStage::drop_entry(ObjectId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  bytes_cached_ -= entry_cost(it->second.image.size());
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void IncCacheStage::abort_fill(ObjectId id) {
  if (fills_.erase(id) > 0) ++counters_.fills_aborted;
}

void IncCacheStage::raise_floor(ObjectId id, std::uint64_t version) {
  auto [it, fresh] = floors_.try_emplace(id, version);
  if (!fresh && it->second < version) it->second = version;
}

void IncCacheStage::on_invalidate(const Frame& f, PortId in_port) {
  ++counters_.invalidations;
  // The floor is what makes a concurrent fill unable to resurrect the
  // pre-write image.  An unversioned invalidate (a plain host-coherence
  // sender) still obsoletes whatever entry we hold.
  std::uint64_t floor = f.obj_version;
  if (floor == 0) {
    auto it = entries_.find(f.object);
    floor = (it != entries_.end() ? it->second.version : floor_of(f.object)) + 1;
  }
  raise_floor(f.object, floor);
  drop_entry(f.object);
  abort_fill(f.object);

  // Fan the invalidate out to every client we served: the home never saw
  // those reads, so their coherence is OUR obligation.
  if (auto rit = readers_.find(f.object); rit != readers_.end()) {
    // Sorted fan-out: the wire order must not depend on the reader set's
    // hash layout (seeded replay determinism).
    std::vector<HostAddr> readers(rit->second.begin(), rit->second.end());
    std::sort(readers.begin(), readers.end());
    for (HostAddr reader : readers) {
      ++counters_.invalidates_forwarded;
      Frame inv;
      inv.type = MsgType::invalidate;
      inv.src_host = addr();
      inv.dst_host = reader;
      inv.object = f.object;
      inv.obj_version = floor;
      inv.seq = next_seq_++;
      inv.trace = f.trace;  // forwarded leg of the same invalidate wave
      switch_emit(switch_, inv, in_port);
    }
    readers_.erase(rit);
  }

  Frame ack;
  ack.type = MsgType::invalidate_ack;
  ack.src_host = addr();
  ack.dst_host = f.src_host;
  ack.object = f.object;
  ack.seq = f.seq;
  ack.trace = f.trace;
  switch_emit(switch_, ack, in_port);
}

}  // namespace objrpc
