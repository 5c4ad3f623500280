#include "core/replication.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace objrpc {

namespace {
/// object_replica payload header: home, epoch, designated flag, sibling
/// count (the byte image follows the sibling list).
constexpr std::size_t kReplicaHeaderBase = 8 + 4 + 1 + 4;
}  // namespace

ReplicaManager::ReplicaManager(ObjNetService& service, ObjectFetcher& fetcher)
    : service_(service),
      fetcher_(fetcher),
      probe_timer_(service.host().event_loop(), service.host().id(),
                   [this](ObjectId id) { on_probe_timeout(id); }),
      recovery_timer_(service.host().event_loop(), service.host().id(),
                      [this](ObjectId id) { on_recovery_timeout(id); }) {
  // The host's coherence front door: the one write observer, the one
  // invalidate handler, and the replica wire messages.
  service_.set_write_observer([this](ObjectId id) { on_local_write(id); });
  service_.set_write_redirector(
      [this](ObjectId id) { return redirect_write(id); });
  // A cached copy never has authority, and neither does a quarantined
  // revived home: it must not answer discovery or take writes until its
  // recovery probe establishes it was not deposed.
  service_.set_authority_filter([this](ObjectId id) {
    return !fetcher_.is_cached_replica(id) && !is_recovering(id);
  });
  // The same quarantine gates reads and the fetcher's chunk serving.
  service_.set_read_guard([this](ObjectId id) { return !is_recovering(id); });
  service_.reliable().set_handler(
      MsgType::object_replica,
      [this](HostAddr, MsgType, ObjectId object, Bytes payload) {
        on_replica_message(object, std::move(payload));
      });
  service_.reliable().set_handler(
      MsgType::member_update,
      [this](HostAddr src, MsgType, ObjectId object, Bytes payload) {
        on_member_update(src, object, std::move(payload));
      });
  HostNode& host = service_.host();
  host.set_handler(MsgType::invalidate,
                   [this](const Frame& f) { on_invalidate(f); });
  host.set_handler(MsgType::epoch_probe,
                   [this](const Frame& f) { on_epoch_probe(f); });
  host.set_handler(MsgType::epoch_reply,
                   [this](const Frame& f) { on_epoch_reply(f); });
  host.set_handler(MsgType::promote_req,
                   [this](const Frame& f) { on_promote_req(f); });
  host.set_revive_hook([this] { on_revival(); });
  metrics_.attach(host.metrics(), host.name() + "/replica");
  metrics_.add("replicas_pushed", [this] { return counters_.replicas_pushed; });
  metrics_.add("replicas_installed",
               [this] { return counters_.replicas_installed; });
  metrics_.add("writes_redirected",
               [this] { return counters_.writes_redirected; });
  metrics_.add("replicas_invalidated",
               [this] { return counters_.replicas_invalidated; });
  metrics_.add("probes_sent", [this] { return counters_.probes_sent; });
  metrics_.add("promotions", [this] { return counters_.promotions; });
  metrics_.add("demotions", [this] { return counters_.demotions; });
  metrics_.add("recoveries_resumed",
               [this] { return counters_.recoveries_resumed; });
  metrics_.add("stale_epoch_rejects",
               [this] { return counters_.stale_epoch_rejects; });
  metrics_.add("replicas_dropped",
               [this] { return counters_.replicas_dropped; });
}

void ReplicaManager::replicate(ObjectId id, HostAddr dst,
                               std::function<void(Status)> cb) {
  auto obj = service_.host().store().get(id);
  if (!obj) {
    if (cb) cb(Error{Errc::not_found, "cannot replicate absent object"});
    return;
  }
  if (is_replica(id)) {
    if (cb) {
      cb(Error{Errc::permission_denied,
               "replicas do not re-replicate; ask the home"});
    }
    return;
  }
  HomeInfo& home = homes_.try_emplace(id).first->second;
  const bool designated = home.members.empty();
  // Payload: home address, epoch, designated flag, current members (the
  // new replica's siblings), then the byte image.
  BufWriter w(kReplicaHeaderBase + 8 * home.members.size() + (*obj)->size());
  w.put_u64(service_.host().addr());
  w.put_u32(home.epoch);
  w.put_u8(designated ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(home.members.size()));
  for (HostAddr m : home.members) w.put_u64(m);
  w.put_bytes((*obj)->raw_bytes());
  ++counters_.replicas_pushed;
  fetcher_.add_copyset_member(id, dst);  // future writes invalidate it
  if (!designated) {
    // Keep the designated successor's sibling view current: on
    // promotion it must invalidate EVERY other replica, including ones
    // pushed after it was.
    std::vector<HostAddr> members = home.members;
    members.push_back(dst);
    service_.reliable().send(home.members.front(), MsgType::member_update,
                             id, encode_member_list(members), nullptr);
  }
  home.members.push_back(dst);
  service_.discovery().on_replica_pushed(id, dst, designated);
  service_.reliable().send(dst, MsgType::object_replica, id,
                           std::move(w).take(), std::move(cb));
}

void ReplicaManager::on_local_write(ObjectId id) {
  // Invalidate every replica under the home's epoch, then restart the
  // membership empty: the next push re-picks a designated successor.
  // The epoch survives.
  fetcher_.invalidate_copyset(id, home_epoch(id));
  auto it = homes_.find(id);
  if (it != homes_.end()) it->second.members.clear();
}

std::optional<HostAddr> ReplicaManager::redirect_write(ObjectId id) {
  auto it = primaries_.find(id);
  if (it == primaries_.end()) return std::nullopt;
  ++counters_.writes_redirected;
  // The bounce is also our failure detector: verify the home we are
  // pointing the writer at still answers.
  suspect_home(id);
  return it->second.home;
}

void ReplicaManager::on_invalidate(const Frame& f) {
  if (auto it = homes_.find(f.object); it != homes_.end()) {
    if (f.epoch != 0 && f.epoch < it->second.epoch) {
      // A deposed home (crashed, promoted around, revived) is still
      // writing under its old epoch.  Reject and fence it off; no ack,
      // so the sender must not count this as delivered.
      ++counters_.stale_epoch_rejects;
      send_epoch_reply(f.src_host, f.object, it->second.epoch,
                       service_.host().addr());
      return;
    }
    if (f.epoch != 0 && f.epoch > it->second.epoch) {
      // The invalidate itself proves a newer home exists: step down
      // first, then let the eviction proceed.
      demote(f.object, f.epoch);
    }
  }
  // A read replica is ours to drop; a cached copy is the fetcher's.
  if (!fetcher_.is_cached_replica(f.object)) {
    if (auto it = primaries_.find(f.object); it != primaries_.end()) {
      primaries_.erase(it);
      ++counters_.replicas_invalidated;
      (void)service_.host().store().remove(f.object);
    }
  }
  fetcher_.accept_invalidate(f);
}

void ReplicaManager::on_replica_message(ObjectId object, Bytes payload) {
  BufReader r(payload);
  ReplicaInfo info;
  info.home = r.get_u64();
  info.epoch = r.get_u32();
  info.designated = r.get_u8() != 0;
  const std::uint32_t sibling_count = r.get_u32();
  for (std::uint32_t i = 0; i < sibling_count && r.ok(); ++i) {
    info.siblings.push_back(r.get_u64());
  }
  if (!r.ok()) return;
  const std::size_t header = kReplicaHeaderBase + 8 * sibling_count;
  if (payload.size() < header) return;
  Bytes image(payload.begin() + static_cast<std::ptrdiff_t>(header),
              payload.end());
  auto obj = Object::from_bytes(object, std::move(image));
  if (!obj) {
    Log::warn("replica", "corrupt replica image for %s",
              object.to_string().c_str());
    return;
  }
  if (service_.host().store().contains(object)) {
    // Refresh: replace the stale copy.
    (void)service_.host().store().remove(object);
  }
  if (Status s = service_.host().store().insert(std::move(*obj)); !s) {
    Log::warn("replica", "cannot install replica: %s",
              s.error().to_string().c_str());
    return;
  }
  // A member_update may have raced ahead of the (much larger) image.
  if (auto pit = pending_siblings_.find(object);
      pit != pending_siblings_.end()) {
    info.siblings = std::move(pit->second);
    pending_siblings_.erase(pit);
  }
  primaries_[object] = std::move(info);
  ++counters_.replicas_installed;
}

void ReplicaManager::on_member_update(HostAddr src, ObjectId object,
                                      Bytes payload) {
  auto members = decode_member_list(payload);
  if (!members) return;
  const HostAddr self = service_.host().addr();
  members->erase(std::remove(members->begin(), members->end(), self),
                 members->end());
  auto it = primaries_.find(object);
  if (it != primaries_.end()) {
    if (it->second.home == src) it->second.siblings = std::move(*members);
  } else {
    pending_siblings_[object] = std::move(*members);
  }
}

void ReplicaManager::suspect_home(ObjectId id) {
  if (probe_timer_.armed(id)) return;
  auto it = primaries_.find(id);
  if (it == primaries_.end()) return;
  ++counters_.probes_sent;
  Frame probe;
  probe.type = MsgType::epoch_probe;
  probe.dst_host = it->second.home;
  probe.object = id;
  probe.epoch = it->second.epoch;
  service_.host().send_frame(std::move(probe));
  probe_timer_.arm(id, kProbeTimeout);
}

void ReplicaManager::on_probe_timeout(ObjectId id) {
  auto rit = primaries_.find(id);
  if (rit == primaries_.end()) return;
  if (rit->second.designated) {
    Log::info("replica", "%s: home of %s silent; promoting",
              service_.host().name().c_str(), id.to_string().c_str());
    promote(id);
  } else {
    // Not our job to take over — but stop steering writers at a
    // corpse: drop the replica and let discovery find the promoted
    // home.
    ++counters_.replicas_dropped;
    primaries_.erase(rit);
    (void)service_.host().store().remove(id);
    service_.discovery().on_departed(id);
  }
}

void ReplicaManager::promote(ObjectId id) {
  auto it = primaries_.find(id);
  if (it == primaries_.end()) return;
  ReplicaInfo info = std::move(it->second);
  primaries_.erase(it);
  probe_timer_.disarm(id);
  const std::uint32_t new_epoch = info.epoch + 1;
  homes_[id] = HomeInfo{new_epoch, {}};
  ++counters_.promotions;
  if (event_observer_) event_observer_(Event::promoted, id, new_epoch);
  if (obs::Tracer& tracer = service_.host().tracer(); tracer.armed()) {
    tracer.instant(0, 0, service_.host().id(),
                   "promoted:" + id.to_string() +
                       " epoch=" + std::to_string(new_epoch),
                   service_.host().event_loop().now());
  }
  const HostAddr self = service_.host().addr();
  // Fence the old home: harmless while it is down, decisive if it is
  // somehow still up (it demotes against the higher epoch).
  send_epoch_reply(info.home, id, new_epoch, self);
  // Sibling replicas still redirect writes at the corpse and answer
  // discovery with the old lineage; invalidate them under the new
  // epoch.  Readers re-fetch from us.
  for (HostAddr sibling : info.siblings) {
    if (sibling == self) continue;
    Frame inv;
    inv.type = MsgType::invalidate;
    inv.dst_host = sibling;
    inv.object = id;
    inv.epoch = new_epoch;
    service_.host().send_frame(std::move(inv));
  }
  // Re-announce under the new regime: the controller re-points the
  // object route here; E2E clients find us on their next broadcast.
  service_.discovery().on_arrived(id);
}

void ReplicaManager::on_epoch_probe(const Frame& f) {
  // While recovering we may already be deposed: claiming authority
  // could mislead the prober, so stay silent and let promotion win.
  if (recovery_timer_.armed(f.object)) return;
  std::uint32_t epoch = 0;
  HostAddr believed = kUnspecifiedHost;
  if (auto hit = homes_.find(f.object); hit != homes_.end()) {
    epoch = hit->second.epoch;
    believed = service_.host().addr();
  } else if (auto rit = primaries_.find(f.object); rit != primaries_.end()) {
    epoch = rit->second.epoch;
    believed = rit->second.home;
  }
  send_epoch_reply(f.src_host, f.object, epoch, believed);
}

void ReplicaManager::on_epoch_reply(const Frame& f) {
  // Home side (including a recovering revived home): any reply carrying
  // a higher epoch is proof of deposition.
  if (auto hit = homes_.find(f.object); hit != homes_.end()) {
    if (f.epoch > hit->second.epoch) demote(f.object, f.epoch);
    return;
  }
  // Replica side: a liveness probe came back.
  if (!probe_timer_.armed(f.object)) return;
  auto it = primaries_.find(f.object);
  if (it == primaries_.end() || f.src_host != it->second.home) return;
  probe_timer_.disarm(f.object);
  if (f.epoch == 0) {
    // The home answered but no longer owns the object (it moved or was
    // dropped): this replica is orphaned.
    ++counters_.replicas_dropped;
    primaries_.erase(it);
    (void)service_.host().store().remove(f.object);
    return;
  }
  if (f.epoch > it->second.epoch) {
    it->second.epoch = f.epoch;
    BufReader r(f.payload);
    const HostAddr believed = r.get_u64();
    if (r.ok() && believed != kUnspecifiedHost) it->second.home = believed;
  }
}

void ReplicaManager::on_promote_req(const Frame& f) {
  // The controller's liveness feed short-circuits suspicion: promote
  // immediately if we still hold the replica.
  promote(f.object);
}

void ReplicaManager::demote(ObjectId id, std::uint32_t seen_epoch) {
  auto it = homes_.find(id);
  if (it == homes_.end()) return;
  Log::info("replica", "%s: deposed as home of %s (epoch %u < %u)",
            service_.host().name().c_str(), id.to_string().c_str(),
            it->second.epoch, seen_epoch);
  homes_.erase(it);
  recovery_timer_.disarm(id);
  ++counters_.demotions;
  if (event_observer_) event_observer_(Event::demoted, id, seen_epoch);
  if (obs::Tracer& tracer = service_.host().tracer(); tracer.armed()) {
    tracer.instant(0, 0, service_.host().id(),
                   "demoted:" + id.to_string() +
                       " epoch=" + std::to_string(seen_epoch),
                   service_.host().event_loop().now());
  }
  // The promoted lineage owns history; our durable copy may hold writes
  // that never replicated (the lost-update window, see DESIGN.md §10).
  (void)service_.host().store().remove(id);
  service_.discovery().on_departed(id);
}

void ReplicaManager::on_revival() {
  // Probe in sorted object order: the wire trace of a recovery must not
  // depend on the hash layout of homes_ (seeded replay determinism).
  for (ObjectId id : homed_objects()) {
    HomeInfo& home = homes_.at(id);
    if (home.members.empty()) continue;  // nobody could have promoted
    for (HostAddr member : home.members) {
      ++counters_.probes_sent;
      Frame probe;
      probe.type = MsgType::epoch_probe;
      probe.dst_host = member;
      probe.object = id;
      probe.epoch = home.epoch;
      service_.host().send_frame(std::move(probe));
    }
    recovery_timer_.arm(id, kRecoveryTimeout);
  }
}

void ReplicaManager::on_recovery_timeout(ObjectId id) {
  // No higher epoch surfaced: no promotion happened while we were
  // down; resume serving.
  ++counters_.recoveries_resumed;
  if (event_observer_) event_observer_(Event::resumed, id, home_epoch(id));
  if (obs::Tracer& tracer = service_.host().tracer(); tracer.armed()) {
    tracer.instant(0, 0, service_.host().id(), "resumed:" + id.to_string(),
                   service_.host().event_loop().now());
  }
}

void ReplicaManager::send_epoch_reply(HostAddr dst, ObjectId id,
                                      std::uint32_t epoch,
                                      HostAddr believed_home) {
  Frame reply;
  reply.type = MsgType::epoch_reply;
  reply.dst_host = dst;
  reply.object = id;
  reply.epoch = epoch;
  BufWriter w(8);
  w.put_u64(believed_home);
  reply.payload = std::move(w).take();
  service_.host().send_frame(std::move(reply));
}

Result<HostAddr> ReplicaManager::primary_of(ObjectId id) const {
  auto it = primaries_.find(id);
  if (it == primaries_.end()) {
    return Error{Errc::not_found, "not a replica here"};
  }
  return it->second.home;
}

}  // namespace objrpc
