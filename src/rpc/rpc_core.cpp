#include "rpc/rpc_core.hpp"

#include "rpc/rpc_message.hpp"

namespace objrpc {

RpcClient::RpcClient(HostNode& host)
    : host_(host),
      timer_(host.event_loop(), host.id(),
             [this](std::uint64_t call_id) { attempt(call_id); }) {
  host_.set_handler(MsgType::invoke_resp,
                    [this](const Frame& f) { on_response(f); });
}

void RpcClient::call(HostAddr dst, const std::string& method, Bytes args,
                     RpcResponseCallback cb, RpcCallOptions opts) {
  ++counters_.calls;
  const std::uint64_t call_id = next_call_id_++;
  PendingCall p;
  p.dst = dst;
  p.method = method;
  p.args = std::move(args);
  p.cb = std::move(cb);
  p.opts = opts;
  p.stats.started_at = host_.event_loop().now();
  pending_.emplace(call_id, std::move(p));
  attempt(call_id);
}

void RpcClient::attempt(std::uint64_t call_id) {
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  PendingCall& p = it->second;
  if (++p.stats.attempts > p.opts.max_attempts) {
    ++counters_.timeouts;
    finish(call_id, Error{Errc::timeout, "rpc attempts exhausted"});
    return;
  }
  if (p.stats.attempts > 1) ++counters_.retries;

  RpcEnvelope env;
  env.kind = RpcKind::request;
  env.call_id = call_id;
  env.method = p.method;
  env.body = p.args;

  Frame f;
  f.type = MsgType::invoke_req;
  f.dst_host = p.dst;
  f.seq = call_id;
  f.payload = env.encode();
  p.stats.bytes_sent += f.payload.size();

  // Serialize-then-send: marshalling burns simulated CPU time first.
  host_.event_loop().schedule_after(
      rpc_marshal_time(p.args.size()), [this, f = std::move(f)]() mutable {
        host_.send_frame(std::move(f));
      });
  timer_.arm(call_id, p.opts.timeout);
}

void RpcClient::on_response(const Frame& f) {
  auto env = RpcEnvelope::decode(f.payload);
  if (!env) return;
  auto it = pending_.find(env->call_id);
  if (it == pending_.end()) return;  // duplicate / late
  if (env->kind == RpcKind::error) {
    ++counters_.errors;
    finish(env->call_id,
           Error{static_cast<Errc>(env->errc), "remote rpc error"});
    return;
  }
  ++counters_.responses;
  // Deserialize-result cost before the caller sees it.
  const std::uint64_t call_id = env->call_id;
  host_.event_loop().schedule_after(
      rpc_marshal_time(env->body.size()),
      [this, call_id, body = std::move(env->body)]() mutable {
        finish(call_id, std::move(body));
      });
}

void RpcClient::finish(std::uint64_t call_id, Result<Bytes> result) {
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  PendingCall p = std::move(it->second);
  pending_.erase(it);
  timer_.disarm(call_id);
  p.stats.finished_at = host_.event_loop().now();
  if (p.cb) p.cb(std::move(result), p.stats);
}

RpcServer::RpcServer(HostNode& host) : host_(host) {
  host_.set_handler(MsgType::invoke_req,
                    [this](const Frame& f) { on_request(f); });
}

void RpcServer::register_method(const std::string& name,
                                MethodHandler handler) {
  methods_[name] = std::move(handler);
}

void RpcServer::on_request(const Frame& f) {
  auto env = RpcEnvelope::decode(f.payload);
  if (!env || env->kind != RpcKind::request) return;
  ++counters_.requests;
  auto it = methods_.find(env->method);
  if (it == methods_.end()) {
    ++counters_.unknown_method;
    send_reply(f.src_host, env->call_id,
               Error{Errc::not_found, "unknown method " + env->method});
    return;
  }
  // Deserialize-arguments cost, then dispatch.
  const HostAddr caller = f.src_host;
  const std::uint64_t call_id = env->call_id;
  host_.event_loop().schedule_after(
      rpc_marshal_time(env->body.size()),
      [this, caller, call_id, handler = &it->second,
       body = std::move(env->body)]() {
        (*handler)(caller, body, [this, caller, call_id](Result<Bytes> r) {
          send_reply(caller, call_id, std::move(r));
        });
      });
}

void RpcServer::send_reply(HostAddr dst, std::uint64_t call_id,
                           Result<Bytes> result) {
  RpcEnvelope env;
  env.call_id = call_id;
  std::size_t body_size = 0;
  if (result) {
    env.kind = RpcKind::response;
    env.body = std::move(*result);
    body_size = env.body.size();
  } else {
    env.kind = RpcKind::error;
    env.errc = static_cast<std::uint16_t>(result.error().code);
  }
  ++counters_.replies;
  Frame f;
  f.type = MsgType::invoke_resp;
  f.dst_host = dst;
  f.seq = call_id;
  f.payload = env.encode();
  // Serialize-result cost before the reply leaves.
  host_.event_loop().schedule_after(
      rpc_marshal_time(body_size), [this, f = std::move(f)]() mutable {
        host_.send_frame(std::move(f));
      });
}

}  // namespace objrpc
