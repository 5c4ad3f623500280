#include "net/reliable.hpp"

#include "common/log.hpp"

namespace objrpc {

namespace {
constexpr std::size_t kCompletedMemory = 1024;
}  // namespace

ReliableChannel::ReliableChannel(HostNode& host, ReliableConfig cfg)
    : host_(host),
      cfg_(cfg),
      timer_(host.event_loop(), host.id(),
             [this](std::uint32_t msg_id) { on_deadline(msg_id); }) {
  host_.set_handler(MsgType::push_frag,
                    [this](const Frame& f) { on_push_frag(f); });
  host_.set_handler(MsgType::frag_ack,
                    [this](const Frame& f) { on_frag_ack(f); });
  metrics_.attach(host.metrics(), host.name() + "/reliable");
  metrics_.add("messages_sent", [this] { return counters_.messages_sent; });
  metrics_.add("messages_delivered",
               [this] { return counters_.messages_delivered; });
  metrics_.add("fragments_sent", [this] { return counters_.fragments_sent; });
  metrics_.add("retransmissions",
               [this] { return counters_.retransmissions; });
  metrics_.add("duplicate_fragments",
               [this] { return counters_.duplicate_fragments; });
  metrics_.add("failures", [this] { return counters_.failures; });
  metrics_.add("reassembly_expired",
               [this] { return counters_.reassembly_expired; });
  metrics_.add("misdirected_acks",
               [this] { return counters_.misdirected_acks; });
}

void ReliableChannel::set_handler(MsgType inner_type,
                                  MessageHandler handler) {
  for (auto& [type, h] : handlers_) {
    if (type == inner_type) {
      h = std::move(handler);
      return;
    }
  }
  handlers_.emplace_back(inner_type, std::move(handler));
}

void ReliableChannel::send(HostAddr dst, MsgType inner_type, ObjectId object,
                           Bytes payload, StatusCallback on_done) {
  const std::uint32_t msg_id = next_msg_id_++;
  const std::uint64_t n = payload.size();
  const std::uint32_t frag_count = static_cast<std::uint32_t>(
      n == 0 ? 1 : (n + cfg_.mtu - 1) / cfg_.mtu);
  if (frag_count > kMaxFragments) {
    if (on_done) {
      on_done(Error{Errc::invalid_argument, "message exceeds fragment space"});
    }
    return;
  }
  Outbound out;
  out.dst = dst;
  out.inner_type = inner_type;
  out.object = object;
  out.payload = std::move(payload);
  out.frag_count = frag_count;
  out.on_done = std::move(on_done);
  for (std::uint32_t i = 0; i < frag_count; ++i) out.unacked.insert(i);
  // Allocate the message's causal identity unconditionally (plain
  // counters — the wire bytes are the same whether or not anyone
  // records); the span itself is recorded only when the tracer is armed.
  out.trace.trace = host_.tracer().new_trace_id(host_.id());
  out.trace.parent = host_.tracer().new_span_id(host_.id());
  if (host_.tracer().armed()) {
    host_.tracer().begin_span(
        out.trace.parent, out.trace.trace, 0, host_.id(),
        std::string("reliable_send:") + msg_type_name(inner_type),
        host_.event_loop().now());
  }
  outbound_.try_emplace(msg_id, std::move(out));
  ++counters_.messages_sent;

  for (std::uint32_t i = 0; i < frag_count; ++i) send_fragment(msg_id, i);
  timer_.arm(msg_id, kRto);
}

void ReliableChannel::send_fragment(std::uint32_t msg_id,
                                    std::uint32_t frag_idx) {
  Outbound* found = outbound_.find(msg_id);
  if (found == nullptr) return;
  Outbound& out = *found;
  const std::uint64_t lo = static_cast<std::uint64_t>(frag_idx) * cfg_.mtu;
  const std::uint64_t hi =
      std::min<std::uint64_t>(lo + cfg_.mtu, out.payload.size());
  Frame f;
  f.type = MsgType::push_frag;
  f.dst_host = out.dst;
  f.object = out.object;
  f.seq = pack_frag_seq({msg_id, frag_idx, out.frag_count});
  f.offset = static_cast<std::uint64_t>(out.inner_type);
  f.length = static_cast<std::uint32_t>(hi - lo);
  f.payload.assign(out.payload.begin() + static_cast<std::ptrdiff_t>(lo),
                   out.payload.begin() + static_cast<std::ptrdiff_t>(hi));
  // Every fragment — first send and retransmission alike — carries the
  // message's original trace context.
  f.trace = out.trace;
  ++counters_.fragments_sent;
  host_.send_frame(std::move(f));
}

void ReliableChannel::on_deadline(std::uint32_t msg_id) {
  // on_frag_ack disarms, so a live deadline's message is outbound.
  Outbound& out = *outbound_.find(msg_id);
  if (out.progressed) {
    // Acks are flowing; restart the timer instead of retransmitting.
    out.progressed = false;
    out.retries = 0;
    timer_.arm(msg_id, kRto);
    return;
  }
  if (++out.retries > cfg_.max_retries) {
    ++counters_.failures;
    finish(msg_id, Error{Errc::timeout, "retry budget exhausted"});
    return;
  }
  // Retransmit everything still unacked (copy: sending mutates nothing
  // but iteration safety matters if callbacks reenter).
  std::vector<std::uint32_t> pending(out.unacked.begin(), out.unacked.end());
  const SimDuration backoff = kRto << std::min(out.retries, 10);
  counters_.retransmissions += pending.size();
  if (host_.tracer().armed()) {
    host_.tracer().instant(out.trace.trace, out.trace.parent, host_.id(),
                           "retransmit x" + std::to_string(pending.size()),
                           host_.event_loop().now());
  }
  for (std::uint32_t idx : pending) send_fragment(msg_id, idx);
  timer_.arm(msg_id, backoff);
}

void ReliableChannel::on_push_frag(const Frame& f) {
  const auto [msg_id, frag_idx, frag_count] = unpack_frag_seq(f.seq);
  if (frag_count == 0 || frag_idx >= frag_count) {
    Log::warn("reliable", "bad fragment indices");
    return;
  }
  // Always ack — even duplicates (the previous ack may have been lost).
  Frame ack;
  ack.type = MsgType::frag_ack;
  ack.dst_host = f.src_host;
  ack.object = f.object;
  ack.seq = f.seq;
  ack.trace = f.trace;  // the ack belongs to the message's trace
  host_.send_frame(std::move(ack));

  const InboundKey key{f.src_host, msg_id};
  if (completed_.count(key)) {
    ++counters_.duplicate_fragments;
    return;
  }
  Inbound* found = inbound_.find(key);
  if (found == nullptr) {
    // A new reassembly starting is the natural moment to collect ones
    // whose sender died mid-message (no timers: lazy sweep keeps the
    // event loop drainable).
    expire_idle();
    found = inbound_.try_emplace(key).first;
    found->frags.resize(frag_count);
    found->have.assign(frag_count, false);
  }
  Inbound& in = *found;
  in.last_activity = host_.event_loop().now();
  if (frag_count != in.frags.size()) {
    Log::warn("reliable", "fragment count mismatch");
    return;
  }
  if (in.have[frag_idx]) {
    ++counters_.duplicate_fragments;
    return;
  }
  in.have[frag_idx] = true;
  in.frags[frag_idx] = f.payload;
  ++in.received;
  if (in.received == in.frags.size()) {
    Bytes whole;
    for (auto& frag : in.frags) {
      whole.insert(whole.end(), frag.begin(), frag.end());
    }
    const auto inner = static_cast<MsgType>(f.offset);
    const HostAddr src = f.src_host;
    const ObjectId obj = f.object;
    inbound_.erase(key);
    remember_completed(key);
    ++counters_.messages_delivered;
    for (auto& [type, handler] : handlers_) {
      if (type == inner) {
        handler(src, inner, obj, std::move(whole));
        return;
      }
    }
    Log::debug("reliable", "%s: unhandled inner type %s",
               host_.name().c_str(), msg_type_name(inner));
  }
}

void ReliableChannel::on_frag_ack(const Frame& f) {
  const auto [msg_id, frag_idx, frag_count] = unpack_frag_seq(f.seq);
  Outbound* found = outbound_.find(msg_id);
  if (found == nullptr) return;
  Outbound& out = *found;
  if (f.src_host != out.dst) {
    // Message ids are sender-local: a stale or misrouted ack from some
    // OTHER host must not complete fragments this destination never
    // acknowledged.
    ++counters_.misdirected_acks;
    return;
  }
  if (out.unacked.erase(frag_idx) > 0) out.progressed = true;
  if (out.unacked.empty()) finish(msg_id, Status::ok());
}

void ReliableChannel::finish(std::uint32_t msg_id, Status s) {
  Outbound& out = *outbound_.find(msg_id);
  auto cb = std::move(out.on_done);
  if (host_.tracer().armed()) {
    const SimTime now = host_.event_loop().now();
    if (!s) {
      host_.tracer().instant(out.trace.trace, out.trace.parent, host_.id(),
                             "reliable_failed", now);
    }
    host_.tracer().end_span(out.trace.parent, now);
  }
  outbound_.erase(msg_id);
  timer_.disarm(msg_id);
  if (cb) cb(std::move(s));
}

void ReliableChannel::remember_completed(const InboundKey& key) {
  completed_.insert(key);
  completed_order_.push_back(key);
  while (completed_order_.size() > kCompletedMemory) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

std::size_t ReliableChannel::expire_idle() {
  const SimTime now = host_.event_loop().now();
  // Backshift deletion relocates entries mid-iteration, so collect the
  // idle keys first and erase after.  Which entries expire is a pure
  // time predicate — visit order never matters.
  std::vector<InboundKey> idle;
  inbound_.for_each([&](const InboundKey& key, const Inbound& in) {
    if (now - in.last_activity > kReassemblyIdle) idle.push_back(key);
  });
  for (const InboundKey& key : idle) inbound_.erase(key);
  counters_.reassembly_expired += idle.size();
  return idle.size();
}

}  // namespace objrpc
