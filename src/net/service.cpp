#include "net/service.hpp"

#include "common/log.hpp"

namespace objrpc {

namespace {

/// The response that completes an access of `kind`.
MsgType response_type(MsgType kind) {
  switch (kind) {
    case MsgType::read_req:
      return MsgType::read_resp;
    case MsgType::write_req:
      return MsgType::write_resp;
    default:
      return MsgType::atomic_resp;
  }
}

/// A reply of `type` to `req`: addressed to its sender, echoing its
/// object, seq and tenant (the reply leg bills the requesting tenant).
Frame reply_to(const Frame& req, MsgType type) {
  Frame r;
  r.type = type;
  r.dst_host = req.src_host;
  r.object = req.object;
  r.seq = req.seq;
  r.tenant = req.tenant;
  return r;
}

}  // namespace

ObjNetService::ObjNetService(HostNode& host,
                             std::unique_ptr<DiscoveryStrategy> discovery,
                             ReliableConfig reliable_cfg)
    : host_(host),
      discovery_(std::move(discovery)),
      reliable_(host, reliable_cfg),
      timer_(host.event_loop(), host.id(),
             [this](std::uint64_t token) { on_deadline(token); }) {
  for (MsgType kind :
       {MsgType::read_req, MsgType::write_req, MsgType::atomic_req}) {
    host_.set_handler(kind, [this](const Frame& f) { on_access_req(f); });
  }
  host_.set_handler(MsgType::read_resp,
                    [this](const Frame& f) { on_response(f); });
  host_.set_handler(MsgType::write_resp,
                    [this](const Frame& f) { on_response(f); });
  host_.set_handler(MsgType::nack, [this](const Frame& f) { on_nack(f); });
  host_.set_handler(MsgType::atomic_resp,
                    [this](const Frame& f) { on_response(f); });
  host_.set_handler(MsgType::discover_req,
                    [this](const Frame& f) { on_discover_req(f); });
  reliable_.set_handler(
      MsgType::object_adopt,
      [this](HostAddr, MsgType, ObjectId object, Bytes payload) {
        on_object_adopt(object, std::move(payload));
      });
}

Result<ObjectPtr> ObjNetService::create_object(std::uint64_t size) {
  return create_object_with_id(host_.ids().allocate(), size);
}

Result<ObjectPtr> ObjNetService::create_object_with_id(ObjectId id,
                                                       std::uint64_t size) {
  auto obj = host_.store().create(id, size);
  if (!obj) return obj;
  discovery_->on_created(id);
  return obj;
}

void ObjNetService::read(GlobalPtr ptr, std::uint32_t length, ReadCallback cb,
                         AccessOptions opts) {
  begin({.kind = MsgType::read_req,
         .ptr = ptr,
         .length = length,
         .cb = std::move(cb),
         .opts = opts});
}

void ObjNetService::write(GlobalPtr ptr, Bytes data, WriteAckCallback cb,
                          AccessOptions opts) {
  begin({.kind = MsgType::write_req,
         .ptr = ptr,
         .length = static_cast<std::uint32_t>(data.size()),  // before the move
         .data = std::move(data),
         .cb = std::move(cb),
         .opts = opts});
}

void ObjNetService::atomic_fetch_add(GlobalPtr ptr, std::uint64_t delta,
                                     AtomicCallback cb, AccessOptions opts) {
  ++counters_.atomics_issued;
  begin({.kind = MsgType::atomic_req,
         .ptr = ptr,
         .data = encode_atomic_request({AtomicOp::fetch_add, delta, 0}),
         .cb = std::move(cb),
         .opts = opts});
}

void ObjNetService::atomic_cas(GlobalPtr ptr, std::uint64_t expected,
                               std::uint64_t desired, AtomicCallback cb,
                               AccessOptions opts) {
  ++counters_.atomics_issued;
  begin({.kind = MsgType::atomic_req,
         .ptr = ptr,
         .data = encode_atomic_request(
             {AtomicOp::compare_swap, desired, expected}),
         .cb = std::move(cb),
         .opts = opts});
}

void ObjNetService::begin(Pending p) {
  const std::uint64_t token = next_token_++;
  p.stats.started_at = host_.event_loop().now();
  pending_.try_emplace(token, std::move(p));
  start_attempt(token);
}

void ObjNetService::finish(std::uint64_t token, Result<Bytes> result) {
  Pending* found = pending_.find(token);
  if (found == nullptr) return;
  Pending p = std::move(*found);
  pending_.erase(token);
  timer_.disarm(token);
  p.stats.finished_at = host_.event_loop().now();
  if (auto* read_cb = std::get_if<ReadCallback>(&p.cb)) {
    if (*read_cb) (*read_cb)(std::move(result), p.stats);
  } else if (auto* write_cb = std::get_if<WriteAckCallback>(&p.cb)) {
    if (*write_cb) {
      (*write_cb)(result ? Status::ok() : Status(result.error()), p.stats);
    }
  } else {
    auto& atomic_cb = std::get<AtomicCallback>(p.cb);
    if (!atomic_cb) return;
    if (!result) {
      atomic_cb(result.error(), p.stats);
    } else if (auto resp = decode_atomic_response(*result)) {
      atomic_cb(*resp, p.stats);
    } else {
      atomic_cb(Error{Errc::malformed, "bad atomic response"}, p.stats);
    }
  }
}

void ObjNetService::start_attempt(std::uint64_t token) {
  Pending* found = pending_.find(token);
  if (found == nullptr) return;
  Pending& p = *found;
  if (++p.stats.attempts > p.opts.max_attempts) {
    ++counters_.timeouts;
    finish(token, Error{Errc::timeout, "access attempts exhausted"});
    return;
  }
  // Local fast path: serve the access here unless this host may not
  // (the object is not held, a guard denies, or a replica owes the
  // mutation to the home); the network path then reaches, or is
  // redirected to, a holder that may.
  const ObjectId object = p.ptr.object;
  Served local = serve(p.kind, object, p.ptr.offset, p.length, p.data);
  const Errc code = local.result ? Errc::ok : local.result.error().code;
  if (code != Errc::not_found && code != Errc::moved) {
    finish(token, std::move(local.result));
    return;
  }
  discovery_->resolve(object, [this, token](Result<ResolveOutcome> out) {
    Pending* found2 = pending_.find(token);
    if (found2 == nullptr) return;
    Pending& p2 = *found2;
    if (!out) {
      finish(token, out.error());
      return;
    }
    p2.stats.rtts += out->rtts;
    p2.stats.used_broadcast |= out->used_broadcast;
    p2.last_dst = out->dst;
    Frame f;
    f.type = p2.kind;
    f.dst_host = out->dst;
    f.object = p2.ptr.object;
    f.seq = token;
    f.offset = p2.ptr.offset;
    f.length = p2.length;
    f.tenant = p2.opts.tenant;
    if (p2.kind == MsgType::write_req || p2.kind == MsgType::atomic_req) {
      f.payload = p2.data;
    }
    timer_.arm(token, p2.opts.timeout);
    host_.send_frame(std::move(f));
  });
}

void ObjNetService::on_deadline(std::uint64_t token) {
  // The request leg burned a round trip with no reply.  Whoever we
  // addressed is unreachable (crashed host, stale route): report the
  // location stale so the retry re-resolves instead of re-sending into
  // the void.  (finish disarms, so a live deadline's access is pending.)
  Pending& p = *pending_.find(token);
  p.stats.rtts += 1;
  if (p.last_dst != kUnspecifiedHost) {
    discovery_->on_stale(p.ptr.object, p.last_dst);
  }
  start_attempt(token);
}

ObjNetService::Served ObjNetService::serve(MsgType kind, ObjectId object,
                                           std::uint64_t offset,
                                           std::uint32_t length,
                                           ByteSpan payload) {
  // A mutation owed to the home (a read replica's write-through) is
  // redirected there before anything else looks at the object.
  if (kind != MsgType::read_req && write_redirector_) {
    if (auto home = write_redirector_(object)) {
      return {Errc::moved, *home};
    }
  }
  const ObjectPtr* resident = host_.store().find(object);
  if (resident == nullptr) return {Errc::not_found};
  // Hold the object itself: the guards below are user callbacks.
  const ObjectPtr obj = *resident;
  if (kind == MsgType::read_req) {
    // A revived home may hold possibly-stale bytes until it is verified.
    if (!may_serve_read(object)) return {Errc::not_found};
    auto span = obj->read(offset, length);
    if (!span) return {span.error()};
    return {Bytes(span->begin(), span->end())};
  }
  // Only the home mutates: a cached copy would split the history.
  if (!is_authoritative(object)) return {Errc::not_found};
  if (kind == MsgType::write_req) {
    if (Status s = obj->write(offset, payload); !s) return {s.error()};
    notify_write(object);
    return {Bytes{}};
  }
  auto req = decode_atomic_request(payload);
  if (!req) return {Error{Errc::malformed, "bad atomic"}};
  auto old = obj->read_u64(offset);
  if (!old) return {old.error()};
  std::uint64_t word = *old;
  const AtomicResponse resp = apply_atomic_op(word, *req);
  if (resp.applied) {
    if (Status s = obj->write_u64(offset, word); !s) return {s.error()};
    ++counters_.atomics_served;
    notify_write(object);
  }
  return {encode_atomic_response(resp)};
}

void ObjNetService::on_access_req(const Frame& f) {
  Served served = serve(f.type, f.object, f.offset, f.length, f.payload);
  if (!served.result) {
    send_nack(f, served.result.error().code, served.home);
    return;
  }
  if (f.type == MsgType::read_req) ++counters_.reads_served;
  if (f.type == MsgType::write_req) ++counters_.writes_served;
  Frame resp = reply_to(f, response_type(f.type));
  resp.offset = f.offset;
  if (f.type != MsgType::atomic_req) resp.length = f.length;
  resp.payload = std::move(*served.result);
  host_.send_frame(std::move(resp));
}

void ObjNetService::on_response(const Frame& f) {
  const std::uint64_t token = f.seq;
  Pending* found = pending_.find(token);
  if (found == nullptr) return;  // late duplicate
  found->stats.rtts += 1;        // request + response = one round trip
  if (f.type == response_type(found->kind)) finish(token, f.payload);
}

void ObjNetService::on_nack(const Frame& f) {
  const std::uint64_t token = f.seq;
  Pending* found = pending_.find(token);
  if (found == nullptr) return;
  ++counters_.nacks_received;
  Pending& p = *found;
  p.stats.nacks += 1;
  p.stats.rtts += 1;  // the failed leg still cost a round trip
  auto info = decode_nack_payload(f.payload);
  const Errc errc = info ? info->code : Errc::malformed;
  if (errc == Errc::not_found) {
    // Stale location: tell discovery, then retry (it will re-resolve).
    discovery_->on_stale(f.object, f.src_host);
  } else if (errc == Errc::moved && info->hint != kUnspecifiedHost) {
    // Redirect: the responder named the authoritative home (e.g. a read
    // replica bouncing a write).  Teach discovery and retry there.
    discovery_->on_redirect(f.object, info->hint);
  } else {
    finish(token, Error{errc, "remote nack"});
    return;
  }
  timer_.disarm(token);  // the retry supersedes the attempt in flight
  start_attempt(token);
}

void ObjNetService::on_discover_req(const Frame& f) {
  if (!is_authoritative(f.object)) return;
  ++counters_.discover_replies_sent;
  host_.send_frame(reply_to(f, MsgType::discover_reply));
}

void ObjNetService::move_object(ObjectId id, HostAddr dst, MoveCallback cb) {
  auto obj = host_.store().get(id);
  if (!obj) {
    if (cb) cb(Error{Errc::not_found, "cannot move absent object"});
    return;
  }
  // Byte-level copy: the object's wire image IS its serialized form.
  Bytes image = (*obj)->raw_bytes();
  reliable_.send(dst, MsgType::object_adopt, id, std::move(image),
                 [this, id, cb = std::move(cb)](Status s) {
                   if (!s) {
                     if (cb) cb(s);
                     return;
                   }
                   // Adoption confirmed: drop the local replica and let
                   // discovery withdraw any advertisement.
                   (void)host_.store().remove(id);
                   discovery_->on_departed(id);
                   if (cb) cb(Status::ok());
                 });
}

void ObjNetService::on_object_adopt(ObjectId object, Bytes payload) {
  auto obj = Object::from_bytes(object, std::move(payload));
  if (!obj) {
    Log::warn("service", "%s: corrupt object image for %s",
              host_.name().c_str(), object.to_string().c_str());
    return;
  }
  if (host_.store().contains(object)) {
    // Replay of a completed move; ignore.
    return;
  }
  if (Status s = host_.store().insert(std::move(*obj)); !s) {
    Log::warn("service", "%s: cannot adopt %s: %s", host_.name().c_str(),
              object.to_string().c_str(), s.error().to_string().c_str());
    return;
  }
  ++counters_.objects_adopted;
  discovery_->on_arrived(object);
}

void ObjNetService::send_nack(const Frame& cause, Errc code, HostAddr hint) {
  Frame nack = reply_to(cause, MsgType::nack);
  nack.payload = encode_nack_payload(code, hint);
  host_.send_frame(std::move(nack));
}

}  // namespace objrpc
