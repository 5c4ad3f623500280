#include "net/objnet.hpp"

#include <algorithm>

#include "sim/switch_node.hpp"

namespace objrpc {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::discover_req:
      return "discover_req";
    case MsgType::discover_reply:
      return "discover_reply";
    case MsgType::advertise:
      return "advertise";
    case MsgType::withdraw:
      return "withdraw";
    case MsgType::ctrl_install:
      return "ctrl_install";
    case MsgType::ctrl_remove:
      return "ctrl_remove";
    case MsgType::read_req:
      return "read_req";
    case MsgType::read_resp:
      return "read_resp";
    case MsgType::write_req:
      return "write_req";
    case MsgType::write_resp:
      return "write_resp";
    case MsgType::nack:
      return "nack";
    case MsgType::push_frag:
      return "push_frag";
    case MsgType::frag_ack:
      return "frag_ack";
    case MsgType::invoke_req:
      return "invoke_req";
    case MsgType::invoke_resp:
      return "invoke_resp";
    case MsgType::invalidate:
      return "invalidate";
    case MsgType::invalidate_ack:
      return "invalidate_ack";
    case MsgType::chunk_req:
      return "chunk_req";
    case MsgType::chunk_resp:
      return "chunk_resp";
    case MsgType::object_adopt:
      return "object_adopt";
    case MsgType::object_replica:
      return "object_replica";
    case MsgType::atomic_req:
      return "atomic_req";
    case MsgType::atomic_resp:
      return "atomic_resp";
    case MsgType::ctrl_cache_grant:
      return "ctrl_cache_grant";
    case MsgType::ctrl_cache_revoke:
      return "ctrl_cache_revoke";
    case MsgType::epoch_probe:
      return "epoch_probe";
    case MsgType::epoch_reply:
      return "epoch_reply";
    case MsgType::promote_req:
      return "promote_req";
    case MsgType::advertise_replica:
      return "advertise_replica";
    case MsgType::member_update:
      return "member_update";
  }
  return "unknown";
}

Bytes Frame::encode() const {
  BufWriter w(88 + payload.size());
  w.put_u8(version);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u16(flags);
  w.put_u32(epoch);  // formerly reserved; same 64-byte header
  w.put_u64(src_host);
  w.put_u64(dst_host);
  w.put_u128(object.value);
  w.put_u64(seq);
  w.put_u64(offset);
  w.put_u32(length);
  w.put_u64(obj_version);
  // Trace context rides at the end of the fixed header so peek() — which
  // reads only the leading routing fields — needs no change.
  w.put_u64(trace.trace);
  w.put_u64(trace.parent);
  // Tenant tag (+ u32 reserve) after the trace context: peek() and all
  // earlier field offsets stay valid.
  w.put_u32(tenant);
  w.put_u32(0);
  w.put_blob(payload);
  return std::move(w).take();
}

Packet Frame::to_packet() const {
  Packet pkt;
  pkt.data = encode();
  pkt.trace_id = trace.trace;
  pkt.span_parent = trace.parent;
  pkt.tenant = tenant;
  return pkt;
}

void switch_emit(SwitchNode& sw, const Frame& frame, PortId in_port) {
  Packet out = frame.to_packet();
  if (frame.dst_host != kUnspecifiedHost) {
    if (auto a = sw.table().lookup(host_route_key(frame.dst_host));
        a && a->kind == ActionKind::forward) {
      sw.forward(a->port, std::move(out));
      return;
    }
  } else {
    // Identity-routed (controller scheme): the controller redirects a
    // punted frame toward the home like any other table miss.
    if (auto a = sw.table().lookup(object_route_key(frame.object));
        a && a->kind == ActionKind::forward) {
      sw.forward(a->port, std::move(out));
      return;
    }
    if (sw.config().punt_port != kInvalidPort) {
      sw.forward(sw.config().punt_port, std::move(out));
      return;
    }
  }
  sw.flood(in_port, out);
}

Result<Frame> Frame::decode(ByteSpan data) {
  std::size_t payload_size = 0;
  auto f = decode_header(data, payload_size);
  // A frame that decodes ends with its payload blob.
  if (f) f->payload.assign(data.end() - payload_size, data.end());
  return f;
}

Result<Frame> Frame::decode_header(ByteSpan data, std::size_t& payload_size) {
  BufReader r(data);
  Frame f;
  f.version = r.get_u8();
  f.type = static_cast<MsgType>(r.get_u8());
  f.flags = r.get_u16();
  f.epoch = r.get_u32();
  f.src_host = r.get_u64();
  f.dst_host = r.get_u64();
  f.object = ObjectId{r.get_u128()};
  f.seq = r.get_u64();
  f.offset = r.get_u64();
  f.length = r.get_u32();
  f.obj_version = r.get_u64();
  f.trace.trace = r.get_u64();
  f.trace.parent = r.get_u64();
  f.tenant = r.get_u32();
  (void)r.get_u32();  // reserved
  payload_size = r.get_span(r.get_varint()).size();
  if (!r.ok() || r.remaining() != 0) {
    return Error{Errc::malformed, "bad frame"};
  }
  if (f.version != 1) {
    return Error{Errc::malformed, "unsupported frame version"};
  }
  return f;
}

std::optional<Frame::RoutingView> Frame::peek(const Packet& pkt) {
  BufReader r(pkt.data);
  RoutingView v;
  const std::uint8_t version = r.get_u8();
  v.type = static_cast<MsgType>(r.get_u8());
  v.flags = r.get_u16();
  (void)r.get_u32();
  v.src_host = r.get_u64();
  v.dst_host = r.get_u64();
  v.object = ObjectId{r.get_u128()};
  if (!r.ok() || version != 1) return std::nullopt;
  return v;
}

std::string Frame::to_string() const {
  std::string s = msg_type_name(type);
  s += " src=" + std::to_string(src_host);
  s += " dst=" + std::to_string(dst_host);
  s += " obj=" + object.to_string();
  s += " seq=" + std::to_string(seq);
  if (is_broadcast()) s += " [bcast]";
  return s;
}

Bytes encode_nack_payload(Errc code, HostAddr hint) {
  BufWriter w(10);
  w.put_u16(static_cast<std::uint16_t>(code));
  w.put_u64(hint);
  return std::move(w).take();
}

std::optional<NackInfo> decode_nack_payload(ByteSpan payload) {
  BufReader r(payload);
  NackInfo info;
  info.code = static_cast<Errc>(r.get_u16());
  info.hint = r.get_u64();
  if (!r.ok()) return std::nullopt;
  return info;
}

Bytes encode_atomic_request(const AtomicRequest& req) {
  BufWriter w(17);
  w.put_u8(static_cast<std::uint8_t>(req.op));
  w.put_u64(req.operand);
  w.put_u64(req.expected);
  return std::move(w).take();
}

std::optional<AtomicRequest> decode_atomic_request(ByteSpan payload) {
  BufReader r(payload);
  AtomicRequest req;
  const std::uint8_t op = r.get_u8();
  req.op = static_cast<AtomicOp>(op);
  req.operand = r.get_u64();
  req.expected = r.get_u64();
  if (!r.ok()) return std::nullopt;
  if (op != static_cast<std::uint8_t>(AtomicOp::fetch_add) &&
      op != static_cast<std::uint8_t>(AtomicOp::compare_swap)) {
    return std::nullopt;  // unknown op: nothing may claim to apply it
  }
  return req;
}

Bytes encode_atomic_response(const AtomicResponse& resp) {
  BufWriter w(9);
  w.put_u64(resp.old_value);
  w.put_u8(resp.applied ? 1 : 0);
  return std::move(w).take();
}

std::optional<AtomicResponse> decode_atomic_response(ByteSpan payload) {
  BufReader r(payload);
  AtomicResponse resp;
  resp.old_value = r.get_u64();
  resp.applied = r.get_u8() != 0;
  if (!r.ok()) return std::nullopt;
  return resp;
}

AtomicResponse apply_atomic_op(std::uint64_t& word, const AtomicRequest& req) {
  AtomicResponse resp;
  resp.old_value = word;
  if (req.op == AtomicOp::fetch_add) {
    word += req.operand;
  } else if (word == req.expected) {
    word = req.operand;
  } else {
    resp.applied = false;
  }
  return resp;
}

void fill_chunk_reply(Frame& resp, const Frame& req, const Bytes& image,
                      std::uint64_t version) {
  resp.obj_version = version;
  if (req.length == 0) {
    resp.offset = image.size();
    resp.length = 0;
    return;
  }
  const std::uint64_t off = std::min<std::uint64_t>(req.offset, image.size());
  const std::uint64_t len =
      std::min<std::uint64_t>(req.length, image.size() - off);
  resp.offset = off;
  resp.length = static_cast<std::uint32_t>(len);
  resp.payload.assign(image.begin() + static_cast<std::ptrdiff_t>(off),
                      image.begin() + static_cast<std::ptrdiff_t>(off + len));
}

Bytes encode_cache_grant(const CacheGrant& grant) {
  BufWriter w(16);
  w.put_u64(grant.sram_budget_bytes);
  w.put_u32(grant.max_entry_bytes);
  w.put_u32(grant.admit_threshold);
  return std::move(w).take();
}

Result<CacheGrant> decode_cache_grant(ByteSpan payload) {
  BufReader r(payload);
  CacheGrant grant;
  grant.sram_budget_bytes = r.get_u64();
  grant.max_entry_bytes = r.get_u32();
  grant.admit_threshold = r.get_u32();
  if (!r.ok()) return Error{Errc::malformed, "bad cache grant"};
  return grant;
}

Bytes encode_replica_advert(const ReplicaAdvert& adv) {
  BufWriter w(9);
  w.put_u64(adv.replica);
  w.put_u8(adv.designated ? 1 : 0);
  return std::move(w).take();
}

std::optional<ReplicaAdvert> decode_replica_advert(ByteSpan payload) {
  BufReader r(payload);
  ReplicaAdvert adv;
  adv.replica = r.get_u64();
  adv.designated = r.get_u8() != 0;
  if (!r.ok()) return std::nullopt;
  return adv;
}

Bytes encode_member_list(const std::vector<HostAddr>& members) {
  BufWriter w(4 + 8 * members.size());
  w.put_u32(static_cast<std::uint32_t>(members.size()));
  for (HostAddr m : members) w.put_u64(m);
  return std::move(w).take();
}

std::optional<std::vector<HostAddr>> decode_member_list(ByteSpan payload) {
  BufReader r(payload);
  const std::uint32_t count = r.get_u32();
  std::vector<HostAddr> members;
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    members.push_back(r.get_u64());
  }
  if (!r.ok() || members.size() != count) return std::nullopt;
  return members;
}

Bytes encode_install_rule(const InstallRule& rule) {
  BufWriter w(20);
  w.put_u128(rule.key);
  w.put_u32(rule.out_port);
  return std::move(w).take();
}

Result<InstallRule> decode_install_rule(ByteSpan payload) {
  BufReader r(payload);
  InstallRule rule;
  rule.key = r.get_u128();
  rule.out_port = r.get_u32();
  if (!r.ok()) return Error{Errc::malformed, "bad install rule"};
  return rule;
}

}  // namespace objrpc
