#include "check/checker.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/hash.hpp"

namespace objrpc::check {

namespace {

/// One wire-digest fact per scheduler decision: a nondeterministic
/// rotation would reorder grants even if the final delivery order
/// happened to coincide.
std::uint64_t fq_fact(NodeId sw, const FqEvent& ev) {
  std::uint64_t h = mix64(0xFA1C5EED00000000ULL |
                          (static_cast<std::uint64_t>(ev.kind) << 8) |
                          ev.tenant);
  h = mix64(h ^ ((static_cast<std::uint64_t>(sw) << 32) | ev.port));
  return mix64(h ^ ev.bytes);
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(Network& net, CheckerConfig cfg)
    : net_(net), cfg_(cfg) {
  net_.arm_wire_digest();
  net_.add_tap([this](NodeId from, NodeId to, const Packet& pkt) {
    on_tap(from, to, pkt);
  });
}

void InvariantChecker::attach_host(HostNode& host, ObjNetService& service,
                                   ObjectFetcher& fetcher,
                                   ReplicaManager& replicas) {
  addr_to_node_[host.addr()] = host.id();
  const HostAddr addr = host.addr();
  const NodeId node = host.id();
  // Component observers journal under the concurrent driver (the same
  // shard-safe replay path as the network tap, DESIGN.md §17) and run
  // inline otherwise — captures are by value for exactly that reason.
  fetcher.set_adopt_observer([this, addr](ObjectId id, std::uint64_t v) {
    net_.observer_journal().run_or_defer([this, addr, id, v] {
      on_admission(addr, id, v, "adopted a pulled image");
    });
  });
  replicas.set_event_observer(
      [this, node](ReplicaManager::Event e, ObjectId id, std::uint32_t ep) {
        net_.observer_journal().run_or_defer(
            [this, node, e, id, ep] { on_replica_event(node, e, id, ep); });
      });
  hosts_.push_back(HostState{&host, &service, &fetcher, &replicas});
}

void InvariantChecker::attach_cache(IncCacheStage& stage) {
  const HostAddr addr = stage.addr();
  addr_to_node_[addr] = static_cast<NodeId>(addr - kIncCacheAddrBase);
  stage.set_admit_observer([this, addr](ObjectId id, std::uint64_t v) {
    net_.observer_journal().run_or_defer([this, addr, id, v] {
      on_admission(addr, id, v, "admitted a fill into SRAM");
    });
  });
  caches_.push_back(&stage);
}

void InvariantChecker::attach_controller(ControllerNode& controller) {
  controller_ = &controller;
  addr_to_node_[controller.addr()] = controller.id();
}

void InvariantChecker::attach_fair_queue(SwitchNode& sw) {
  EgressScheduler* fq = sw.fair_queue();
  if (fq == nullptr) return;
  fq_switches_.push_back(&sw);
  const NodeId node = sw.id();
  fq->add_observer([this, node](const FqEvent& ev) {
    // Fold here, inside the executing event, not in the journaled
    // closure: a replayed closure runs outside any event, so it has no
    // event key to place the fact by.
    net_.fold_digest(fq_fact(node, ev));
    net_.observer_journal().run_or_defer(
        [this, node, ev] { on_fq_event(node, ev); });
  });
}

void InvariantChecker::on_fq_event(NodeId sw, const FqEvent& ev) {
  switch (ev.kind) {
    case FqEvent::Kind::activated: {
      // Start tracking the moment the tenant becomes backlogged — a
      // tenant the scheduler never grants at all must still be caught.
      auto& own = fq_waits_[{sw, ev.port, ev.tenant}];
      own.passes = 0;
      own.max_active = ev.active_tenants;
      break;
    }
    case FqEvent::Kind::grant: {
      // The granted tenant's wait resets; every other tenant tracked on
      // this port waited one more visit.  In a correct DRR rotation a
      // tenant waits at most (rotation size - 1) visits between its own
      // grants, so exceeding the largest rotation it has been part of
      // since its last grant means it was skipped — its queue share
      // fell below the fair-share floor.
      auto& own = fq_waits_[{sw, ev.port, ev.tenant}];
      own.passes = 0;
      own.max_active = ev.active_tenants;
      for (auto& [key, wait] : fq_waits_) {
        if (std::get<0>(key) != sw || std::get<1>(key) != ev.port ||
            std::get<2>(key) == ev.tenant) {
          continue;
        }
        ++wait.passes;
        if (ev.active_tenants > wait.max_active) {
          wait.max_active = ev.active_tenants;
        }
        if (wait.passes > wait.max_active) {
          violation(ViolationClass::fair_share_starvation, ObjectId{},
                    fmt("%s port %u: tenant %u waited %" PRIu64
                        " DRR grants (rotation never larger than %u) while "
                        "backlogged — below its fair-share floor",
                        node_name(sw).c_str(), ev.port, std::get<2>(key),
                        wait.passes, wait.max_active));
        }
      }
      break;
    }
    case FqEvent::Kind::drained:
      // Tenant left the rotation with an empty queue: it is no longer
      // owed service; forget its wait state.
      fq_waits_.erase({sw, ev.port, ev.tenant});
      break;
    case FqEvent::Kind::sent:
    case FqEvent::Kind::rotated:
    case FqEvent::Kind::dropped:
      break;
  }
}

std::string InvariantChecker::node_name(NodeId n) const {
  if (n < net_.node_count()) return net_.node(n).name();
  return fmt("node%u", n);
}

void InvariantChecker::on_tap(NodeId from, NodeId to, const Packet& pkt) {
  std::size_t payload_bytes = 0;
  auto frame = Frame::decode_header(pkt.data, payload_bytes);
  if (!frame) return;  // not protocol traffic; nothing to validate

  WireEvent ev;
  ev.at = net_.now();
  ev.from = from;
  ev.to = to;
  ev.type = frame->type;
  ev.src = frame->src_host;
  ev.dst = frame->dst_host;
  ev.object = frame->object;
  ev.seq = frame->seq;
  ev.offset = frame->offset;
  ev.length = frame->length;
  ev.epoch = frame->epoch;
  ev.obj_version = frame->obj_version;
  ev.payload_bytes = payload_bytes;
  ev.tenant = frame->tenant;
  if (auto it = addr_to_node_.find(ev.src);
      ev.src != kUnspecifiedHost && it != addr_to_node_.end()) {
    ev.emission = it->second == from;
  }
  if (auto it = addr_to_node_.find(ev.dst);
      ev.dst != kUnspecifiedHost && it != addr_to_node_.end()) {
    ev.final_delivery = it->second == to;
  }

  ++events_;
  trace_.push_back(ev);
  if (trace_.size() > kTraceDepth) trace_.pop_front();

  if (ev.emission) check_emission(ev);
  if (ev.final_delivery) check_delivery(ev);
}

void InvariantChecker::check_emission(const WireEvent& ev) {
  switch (ev.type) {
    case MsgType::chunk_resp: {
      // A holder that acknowledged an invalidate at version v may never
      // again hand out an image below v.
      if (ev.offset == kChunkNotHere || ev.obj_version == 0) break;
      const std::uint64_t floor = acked_floor(ev.src, ev.object);
      if (ev.obj_version < floor) {
        violation(ViolationClass::stale_serve, ev.object,
                  fmt("%s emitted chunk_resp at version %" PRIu64
                      ", below the floor %" PRIu64
                      " it acknowledged an invalidate for",
                      addr_to_string(ev.src).c_str(), ev.obj_version, floor));
      }
      break;
    }
    case MsgType::invalidate: {
      // Switch caches sit on the read path between the home and every
      // host replica, so they must be invalidated FIRST; a host that
      // re-fetches after its own invalidate must not be answerable by a
      // not-yet-invalidated switch holding the old image.  A host is
      // single-homed, so first-hop emission order equals send order.
      if (ev.obj_version == 0) break;
      const InvKey key{ev.src, ev.object, ev.obj_version};
      if (is_inc_cache_addr(ev.dst)) {
        if (host_inv_emitted_.count(key) != 0) {
          violation(ViolationClass::invalidate_order, ev.object,
                    fmt("%s invalidated a host replica before switch "
                        "cache %s (version %" PRIu64 ")",
                        addr_to_string(ev.src).c_str(),
                        addr_to_string(ev.dst).c_str(), ev.obj_version));
        }
      } else {
        host_inv_emitted_.insert(key);
      }
      break;
    }
    case MsgType::invalidate_ack: {
      // The ack proves the holder PROCESSED the invalidate: only now may
      // the coherence floor attach to it.  Rejected invalidates (stale
      // epoch) are never acked and so never raise a floor.
      auto it = inv_delivered_.find({ev.src, ev.object, ev.seq});
      if (it != inv_delivered_.end() && !it->second.empty()) {
        const std::uint64_t version = it->second.front();
        it->second.pop_front();
        if (version > 0) {
          auto& floor = acked_floor_[{ev.src, ev.object}];
          if (version > floor) floor = version;
        }
      }
      break;
    }
    case MsgType::push_frag: {
      const auto [msg_id, frag_idx, frag_count] = unpack_frag_seq(ev.seq);
      ++frags_[{ev.src, ev.dst, msg_id, frag_idx}].sent;
      break;
    }
    case MsgType::frag_ack: {
      // Acks echo the fragment's packed seq; the original sender is the
      // ack's destination.  An ack for a fragment never delivered to the
      // acker would falsely complete a transfer that did not happen.
      const auto [msg_id, frag_idx, frag_count] = unpack_frag_seq(ev.seq);
      auto it = frags_.find({ev.dst, ev.src, msg_id, frag_idx});
      if (it == frags_.end() || it->second.delivered == 0) {
        violation(ViolationClass::forged_ack, ev.object,
                  fmt("%s acknowledged fragment %u of message %u from %s "
                      "that was never delivered to it",
                      addr_to_string(ev.src).c_str(), frag_idx, msg_id,
                      addr_to_string(ev.dst).c_str()));
      }
      break;
    }
    default:
      break;
  }
}

void InvariantChecker::check_delivery(const WireEvent& ev) {
  switch (ev.type) {
    case MsgType::push_frag: {
      const auto [msg_id, frag_idx, frag_count] = unpack_frag_seq(ev.seq);
      auto& fc = frags_[{ev.src, ev.dst, msg_id, frag_idx}];
      ++fc.delivered;
      if (fc.delivered > fc.sent) {
        violation(ViolationClass::frag_conservation, ev.object,
                  fmt("fragment %u of message %u (%s -> %s) delivered "
                      "%" PRIu64 " times but emitted only %" PRIu64,
                      frag_idx, msg_id, addr_to_string(ev.src).c_str(),
                      addr_to_string(ev.dst).c_str(), fc.delivered, fc.sent));
      }
      break;
    }
    case MsgType::invalidate:
      // Remember the delivery so the holder's eventual ack emission can
      // be matched back to the version it acknowledges.
      inv_delivered_[{ev.dst, ev.object, ev.seq}].push_back(ev.obj_version);
      break;
    default:
      break;
  }
}

void InvariantChecker::on_replica_event(NodeId node, ReplicaManager::Event e,
                                        ObjectId id, std::uint32_t epoch) {
  EpochEvent ev;
  ev.at = net_.now();
  ev.node = node;
  ev.epoch = epoch;
  switch (e) {
    case ReplicaManager::Event::promoted:
      ev.kind = EpochEvent::Kind::promoted;
      break;
    case ReplicaManager::Event::demoted:
      ev.kind = EpochEvent::Kind::demoted;
      break;
    case ReplicaManager::Event::resumed:
      ev.kind = EpochEvent::Kind::resumed;
      break;
  }
  lineage_[id].push_back(ev);

  if (e != ReplicaManager::Event::promoted) return;
  auto& max_epoch = max_promo_epoch_[id];
  if (epoch == max_epoch) {
    violation(ViolationClass::split_brain, id,
              fmt("%s promoted itself under epoch %u, already claimed by an "
                  "earlier promotion — two successors from the same base",
                  node_name(node).c_str(), epoch));
  } else if (epoch < max_epoch) {
    violation(ViolationClass::epoch_regression, id,
              fmt("%s promoted itself under epoch %u after epoch %u was "
                  "already reached",
                  node_name(node).c_str(), epoch, max_epoch));
  } else {
    max_epoch = epoch;
  }
}

void InvariantChecker::on_admission(HostAddr holder, ObjectId id,
                                    std::uint64_t version, const char* what) {
  if (version == 0) return;  // unversioned image: nothing to compare
  const std::uint64_t floor = acked_floor(holder, id);
  if (version < floor) {
    violation(ViolationClass::stale_admission, id,
              fmt("%s %s at version %" PRIu64 ", below the floor %" PRIu64
                  " it acknowledged an invalidate for",
                  addr_to_string(holder).c_str(), what, version, floor));
  }
}

void InvariantChecker::on_quiesce() {
  const SimTime now = net_.now();
  net_.fold_digest(0xC0FFEE00D16E5700ULL);  // quiesce marker
  net_.fold_digest(static_cast<std::uint64_t>(now));

  // Split brain at rest: at most one live, non-recovering home per
  // lineage.  (A crashed home's frozen state and a recovering revived
  // home are both legitimately fenced off.)
  std::map<ObjectId, std::vector<NodeId>> live_homes;
  for (const auto& hs : hosts_) {
    if (!net_.node_up(hs.host->id())) continue;
    for (ObjectId id : hs.replicas->homed_objects()) {
      if (!hs.replicas->is_recovering(id)) {
        live_homes[id].push_back(hs.host->id());
      }
    }
  }
  for (const auto& [id, nodes] : live_homes) {
    if (nodes.size() <= 1) continue;
    std::string who;
    for (NodeId n : nodes) {
      if (!who.empty()) who += ", ";
      who += node_name(n);
    }
    violation(ViolationClass::split_brain, id,
              fmt("%zu live non-recovering homes at quiesce: %s",
                  nodes.size(), who.c_str()));
  }

  // Per-host liveness: the queue is empty, so nothing left in the
  // simulation can complete any of this state.  Dead nodes are skipped —
  // their frozen state may legitimately resume on revival.
  for (const auto& hs : hosts_) {
    ReliableChannel& rel = hs.service->reliable();
    net_.fold_digest(hs.fetcher->pending_fetch_count());
    net_.fold_digest(hs.service->pending_access_count());
    net_.fold_digest(rel.outbound_in_progress());
    net_.fold_digest(rel.inbound_in_progress());
    if (!net_.node_up(hs.host->id())) continue;
    const std::string name = node_name(hs.host->id());
    for (ObjectId id : hs.fetcher->pending_objects()) {
      violation(ViolationClass::stuck_fetch, id,
                fmt("%s still has an object pull open at quiesce",
                    name.c_str()));
    }
    if (hs.service->pending_access_count() > 0) {
      violation(ViolationClass::stuck_access, ObjectId{},
                fmt("%s still has %zu read/write/atomic accesses open at "
                    "quiesce",
                    name.c_str(), hs.service->pending_access_count()));
    }
    if (hs.replicas->probing_count() > 0) {
      violation(ViolationClass::stuck_probe, ObjectId{},
                fmt("%s still has %zu epoch probes open at quiesce",
                    name.c_str(), hs.replicas->probing_count()));
    }
    if (rel.outbound_in_progress() > 0) {
      violation(ViolationClass::stuck_transfer, ObjectId{},
                fmt("%s still has %zu reliable transfers open at quiesce",
                    name.c_str(), rel.outbound_in_progress()));
    }
    // Partial reassemblies are only a leak once they are eligible for
    // the channel's own idle expiry AND the sender is alive (a live
    // sender either finished or gave up; its partial will never grow).
    for (const auto& snap : rel.inbound_snapshot()) {
      auto sit = addr_to_node_.find(snap.src);
      const bool sender_alive =
          sit != addr_to_node_.end() && net_.node_up(sit->second);
      if (sender_alive &&
          now - snap.last_activity > ReliableChannel::kReassemblyIdle) {
        violation(ViolationClass::leaked_reassembly, ObjectId{},
                  fmt("%s holds a partial reassembly (msg %u from %s, %u/%u "
                      "fragments) idle past expiry at quiesce",
                      name.c_str(), snap.msg_id,
                      addr_to_string(snap.src).c_str(), snap.received,
                      snap.total));
      }
    }
  }

  // Fair-queueing switches: the scheduler keeps a drain event pending
  // while anything is queued, so a backlog surviving quiesce means
  // frames are parked with nothing left to send them.
  for (SwitchNode* sw : fq_switches_) {
    const EgressScheduler* fq = sw->fair_queue();
    net_.fold_digest(fq->backlog_bytes());
    if (!net_.node_up(sw->id())) continue;
    if (fq->backlog_bytes() > 0) {
      violation(ViolationClass::stuck_egress, ObjectId{},
                fmt("%s still holds %" PRIu64
                    " fair-queued bytes at quiesce",
                    node_name(sw->id()).c_str(), fq->backlog_bytes()));
    }
  }

  // Switch caches: no fill may be left open (nothing can answer it),
  // and the enabled-state must agree with the controller's grant set.
  for (IncCacheStage* cache : caches_) {
    const auto sw = static_cast<NodeId>(cache->addr() - kIncCacheAddrBase);
    net_.fold_digest(cache->pending_fill_count());
    if (!net_.node_up(sw)) continue;
    for (ObjectId id : cache->pending_fill_objects()) {
      violation(ViolationClass::stuck_fill, id,
                fmt("%s still has a cache fill open at quiesce",
                    addr_to_string(cache->addr()).c_str()));
    }
    if (controller_ != nullptr) {
      const auto granted = controller_->caching_switches();
      const bool expect =
          std::binary_search(granted.begin(), granted.end(), sw);
      if (expect != cache->enabled()) {
        violation(ViolationClass::grant_mismatch, ObjectId{},
                  fmt("%s is %s but the controller believes the privilege "
                      "is %s",
                      addr_to_string(cache->addr()).c_str(),
                      cache->enabled() ? "enabled" : "disabled",
                      expect ? "granted" : "revoked"));
      }
    }
  }
}

void InvariantChecker::violation(ViolationClass cls, ObjectId object,
                                 std::string detail) {
  std::string key = violation_class_name(cls);
  key += '|';
  key += object.to_full_hex();
  key += '|';
  key += detail;
  if (!seen_.insert(std::move(key)).second) return;  // duplicate sighting

  Violation v;
  v.cls = cls;
  v.at = net_.now();
  v.object = object;
  v.detail = std::move(detail);
  if (auto it = lineage_.find(object); it != lineage_.end()) {
    v.epoch_trail = it->second;
  }
  v.trace.assign(trace_.begin(), trace_.end());
  violations_.push_back(std::move(v));

  if (cfg_.abort_on_violation) {
    std::fprintf(stderr, "%s\n",
                 violations_.back()
                     .to_string([this](NodeId n) { return node_name(n); })
                     .c_str());
    std::abort();
  }
}

std::size_t InvariantChecker::count_of(ViolationClass cls) const {
  std::size_t n = 0;
  for (const auto& v : violations_) {
    if (v.cls == cls) ++n;
  }
  return n;
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += v.to_string([this](NodeId n) { return node_name(n); });
    out += '\n';
  }
  return out;
}

}  // namespace objrpc::check
