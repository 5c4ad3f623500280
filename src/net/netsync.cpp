#include "net/netsync.hpp"

namespace objrpc {

SyncOffload::SyncOffload(SwitchNode& sw)
    : switch_(sw), next_hook_(sw.pre_match_hook()) {
  // The base hook (dedup, learning, control frames) runs FIRST so the
  // switch learns the requester's port before we answer from here.
  switch_.set_pre_match_hook(
      [this](SwitchNode& s, PortId in_port, const Packet& pkt) {
        if (next_hook_ && next_hook_(s, in_port, pkt)) return true;
        return handle(s, in_port, pkt);
      });
}

void SyncOffload::claim(ObjectId object, std::uint64_t offset,
                        std::uint64_t initial_value) {
  registers_[WordKey{object.value, offset}] = initial_value;
}

std::optional<std::uint64_t> SyncOffload::release(ObjectId object,
                                                  std::uint64_t offset) {
  auto it = registers_.find(WordKey{object.value, offset});
  if (it == registers_.end()) return std::nullopt;
  const std::uint64_t value = it->second;
  registers_.erase(it);
  return value;
}

std::optional<std::uint64_t> SyncOffload::peek(ObjectId object,
                                               std::uint64_t offset) const {
  auto it = registers_.find(WordKey{object.value, offset});
  if (it == registers_.end()) return std::nullopt;
  return it->second;
}

bool SyncOffload::handle(SwitchNode& sw, PortId in_port, const Packet& pkt) {
  auto view = Frame::peek(pkt);
  if (!view || view->type != MsgType::atomic_req) return false;
  auto frame = Frame::decode(pkt.data);
  if (!frame) return false;
  auto it = registers_.find(WordKey{frame->object.value, frame->offset});
  if (it == registers_.end()) return false;  // not claimed: normal path
  auto req = decode_atomic_request(frame->payload);
  if (!req) return false;

  // Execute in the pipeline.
  const AtomicResponse resp = apply_atomic_op(it->second, *req);
  if (!resp.applied) ++counters_.cas_failures;
  ++counters_.served;

  // Answer straight from the switch.
  Frame reply;
  reply.type = MsgType::atomic_resp;
  reply.src_host = kUnspecifiedHost;  // network-origin
  reply.dst_host = frame->src_host;
  reply.object = frame->object;
  reply.seq = frame->seq;
  reply.offset = frame->offset;
  reply.tenant = frame->tenant;  // the reply leg bills the requester
  reply.payload = encode_atomic_response(resp);
  switch_emit(sw, reply, in_port);
  return true;
}

}  // namespace objrpc
