#include "rpc/middleware.hpp"

#include "rpc/rpc_message.hpp"

namespace objrpc {

DirectoryService::DirectoryService(HostNode& host) : server_(host) {
  server_.register_method(
      "resolve", [this](HostAddr, ByteSpan args, RpcServer::ReplyFn reply) {
        BufReader r(args);
        const std::string name = r.get_string();
        if (!r.ok()) {
          reply(Error{Errc::malformed, "bad resolve args"});
          return;
        }
        ++resolutions_;
        auto it = entries_.find(name);
        if (it == entries_.end()) {
          reply(Error{Errc::not_found, "unknown service " + name});
          return;
        }
        BufWriter w;
        w.put_u64(it->second);
        reply(std::move(w).take());
      });
}

void DirectoryService::resolve(RpcClient& client, HostAddr dir,
                               const std::string& name,
                               std::function<void(Result<HostAddr>)> cb) {
  BufWriter w;
  w.put_string(name);
  client.call(dir, "resolve", std::move(w).take(),
              [cb = std::move(cb)](Result<Bytes> r, const RpcCallStats&) {
                if (!r) {
                  cb(r.error());
                  return;
                }
                BufReader reader(*r);
                const HostAddr addr = reader.get_u64();
                if (!reader.ok()) {
                  cb(Error{Errc::malformed, "bad resolve reply"});
                  return;
                }
                cb(addr);
              });
}

LoadBalancer::LoadBalancer(HostNode& host, std::vector<HostAddr> backends)
    : host_(host), backends_(std::move(backends)) {
  host_.set_handler(MsgType::invoke_req,
                    [this](const Frame& f) { on_request(f); });
  host_.set_handler(MsgType::invoke_resp,
                    [this](const Frame& f) { on_response(f); });
}

void LoadBalancer::on_request(const Frame& f) {
  auto env = RpcEnvelope::decode(f.payload);
  if (!env || env->kind != RpcKind::request || backends_.empty()) return;
  const std::uint64_t relay_id = next_relay_id_++;
  relays_[relay_id] = Relay{f.src_host, env->call_id};
  const HostAddr backend = backends_[next_backend_++ % backends_.size()];
  ++relayed_;

  RpcEnvelope fwd = *env;
  fwd.call_id = relay_id;
  Frame out;
  out.type = MsgType::invoke_req;
  out.dst_host = backend;
  out.seq = relay_id;
  out.payload = fwd.encode();
  // Proxying re-frames the request: pay a marshalling step.
  host_.event_loop().schedule_after(
      rpc_marshal_time(env->body.size()),
      [this, out = std::move(out)]() mutable {
        host_.send_frame(std::move(out));
      });
}

void LoadBalancer::on_response(const Frame& f) {
  auto env = RpcEnvelope::decode(f.payload);
  if (!env) return;
  auto it = relays_.find(env->call_id);
  if (it == relays_.end()) return;
  const Relay relay = it->second;
  relays_.erase(it);

  RpcEnvelope back = *env;
  back.call_id = relay.caller_call_id;
  Frame out;
  out.type = MsgType::invoke_resp;
  out.dst_host = relay.caller;
  out.seq = relay.caller_call_id;
  out.payload = back.encode();
  host_.event_loop().schedule_after(
      rpc_marshal_time(env->body.size()),
      [this, out = std::move(out)]() mutable {
        host_.send_frame(std::move(out));
      });
}

}  // namespace objrpc
