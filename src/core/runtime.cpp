#include "core/runtime.hpp"

#include "common/log.hpp"

namespace objrpc {

Result<ObjectPtr> InvokeContext::resolve(ObjectId id) {
  if (const ObjectPtr* obj = host_.store().find(id)) return *obj;
  faults_.push_back(id);
  return Error{Errc::not_found, "object fault: " + id.to_string()};
}

ObjectResolver InvokeContext::resolver() {
  return [this](ObjectId id) { return resolve(id); };
}

InvokeRuntime::InvokeRuntime(ObjNetService& service, CodeRegistry& registry,
                             ObjectFetcher& fetcher)
    : service_(service),
      registry_(registry),
      fetcher_(fetcher),
      timer_(service.host().event_loop(), service.host().id(),
             [this](std::uint64_t token) { on_deadline(token); }) {
  HostNode& host = service_.host();
  host.set_handler(MsgType::invoke_req,
                   [this](const Frame& f) { on_invoke_req(f); });
  host.set_handler(MsgType::invoke_resp, [this](const Frame& f) {
    BufReader r(f.payload);
    const auto errc = static_cast<Errc>(r.get_u16());
    if (errc == Errc::ok) {
      Bytes body = r.get_blob();
      if (!r.ok()) return;
      finish_remote(f.seq, std::move(body));
    } else {
      const std::string msg = r.get_string();
      finish_remote(f.seq, Error{errc, msg});
    }
  });
}

// --- wire format ---------------------------------------------------------------

Bytes InvokeRuntime::encode_invoke(FuncId fn,
                                   const std::vector<GlobalPtr>& args,
                                   ByteSpan inline_arg) {
  BufWriter w(64 + args.size() * 24 + inline_arg.size());
  w.put_u128(fn.value);
  w.put_varint(args.size());
  for (const auto& a : args) {
    w.put_u128(a.object.value);
    w.put_u64(a.offset);
  }
  w.put_blob(inline_arg);
  return std::move(w).take();
}

Result<InvokeRuntime::DecodedInvoke> InvokeRuntime::decode_invoke(
    ByteSpan payload) {
  BufReader r(payload);
  DecodedInvoke d;
  d.fn = FuncId{r.get_u128()};
  const std::uint64_t n = r.get_varint();
  if (!r.ok() || n > 4096) {
    return Error{Errc::malformed, "bad invoke arg count"};
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    GlobalPtr p;
    p.object = ObjectId{r.get_u128()};
    p.offset = r.get_u64();
    d.args.push_back(p);
  }
  d.inline_arg = r.get_blob();
  if (!r.ok() || r.remaining() != 0) {
    return Error{Errc::malformed, "bad invoke payload"};
  }
  return d;
}

// --- local execution -------------------------------------------------------------

void InvokeRuntime::execute_local(FuncId fn, std::vector<GlobalPtr> args,
                                  Bytes inline_arg, InvokeCallback cb,
                                  InvokeOptions opts) {
  auto stats = std::make_shared<InvokeStats>();
  stats->started_at = service_.host().event_loop().now();
  stats->executor = service_.host().addr();
  auto done = [this, cb = std::move(cb), stats](Result<Bytes> r) {
    stats->finished_at = service_.host().event_loop().now();
    if (!r) ++counters_.failures;
    if (cb) cb(std::move(r), *stats);
  };

  // Ensure the argument objects are resident, then run fault rounds.
  std::vector<ObjectId> to_fetch;
  for (const auto& a : args) {
    if (!a.is_null() && !service_.host().store().contains(a.object)) {
      to_fetch.push_back(a.object);
    }
  }
  fetch_then(to_fetch, stats, done,
             [this, fn, args = std::move(args),
              inline_arg = std::move(inline_arg), opts, stats,
              done]() mutable {
               run_rounds(fn, std::move(args), std::move(inline_arg), opts,
                          stats, done, 1);
             });
}

void InvokeRuntime::fetch_then(const std::vector<ObjectId>& ids,
                               std::shared_ptr<InvokeStats> stats, Done done,
                               std::function<void()> then) {
  if (ids.empty()) {
    then();
    return;
  }
  // Zero outstanding before the last success means a failure already
  // completed the call.
  auto remaining = std::make_shared<std::size_t>(ids.size());
  for (ObjectId id : ids) {
    fetcher_.fetch(id, [remaining, stats, done, then](Status s) mutable {
      if (*remaining == 0) return;
      if (!s) {
        *remaining = 0;
        done(s.error());
        return;
      }
      ++stats->objects_fetched;
      if (--*remaining == 0) then();
    });
  }
}

void InvokeRuntime::run_rounds(FuncId fn, std::vector<GlobalPtr> args,
                               Bytes inline_arg, InvokeOptions opts,
                               std::shared_ptr<InvokeStats> stats, Done done,
                               int round) {
  if (round > opts.max_fault_rounds) {
    done(Error{Errc::timeout, "fault-round budget exhausted"});
    return;
  }
  auto entry = registry_.lookup(fn);
  if (!entry) {
    done(entry.error());
    return;
  }
  stats->rounds = round;
  InvokeContext ctx(service_.host(), fetcher_);
  Result<Bytes> result = (*entry)->fn(ctx, args, inline_arg);
  if (!ctx.faulted()) {
    done(std::move(result));
    return;
  }
  // Object faults: fetch everything the round discovered, then re-run.
  ++counters_.fault_rounds;
  fetch_then(ctx.faults(), stats, done,
             [this, fn, args = std::move(args),
              inline_arg = std::move(inline_arg), opts, stats, done,
              round]() mutable {
               run_rounds(fn, std::move(args), std::move(inline_arg), opts,
                          std::move(stats), std::move(done), round + 1);
             });
}

// --- remote invocation -------------------------------------------------------------

void InvokeRuntime::invoke_at(HostAddr executor, FuncId fn,
                              std::vector<GlobalPtr> args, Bytes inline_arg,
                              InvokeCallback cb, InvokeOptions opts) {
  if (executor == service_.host().addr()) {
    execute_local(fn, std::move(args), std::move(inline_arg), std::move(cb),
                  opts);
    return;
  }
  const std::uint64_t token = next_token_++;
  PendingInvoke& p = pending_[token];
  p.cb = std::move(cb);
  p.opts = opts;
  p.payload = encode_invoke(fn, args, inline_arg);
  p.stats.started_at = service_.host().event_loop().now();
  p.stats.executor = executor;
  send_remote(token);
}

void InvokeRuntime::send_remote(std::uint64_t token) {
  PendingInvoke& p = pending_.at(token);
  Frame f;
  f.type = MsgType::invoke_req;
  f.dst_host = p.stats.executor;
  f.seq = token;
  f.tenant = p.opts.tenant;
  f.payload = p.payload;
  ++p.attempts;
  service_.host().send_frame(std::move(f));
  timer_.arm(token, p.opts.timeout);
}

void InvokeRuntime::on_deadline(std::uint64_t token) {
  // finish_remote disarms, so a live deadline's invocation is pending.
  const PendingInvoke& p = pending_.at(token);
  if (p.attempts >= p.opts.max_attempts) {
    finish_remote(token, Error{Errc::timeout, "invoke timed out"});
    return;
  }
  send_remote(token);
}

void InvokeRuntime::finish_remote(std::uint64_t token, Result<Bytes> result) {
  auto it = pending_.find(token);
  if (it == pending_.end()) return;
  PendingInvoke p = std::move(it->second);
  pending_.erase(it);
  timer_.disarm(token);
  p.stats.finished_at = service_.host().event_loop().now();
  if (!result) ++counters_.failures;
  if (p.cb) p.cb(std::move(result), p.stats);
}

void InvokeRuntime::on_invoke_req(const Frame& f) {
  auto decoded = decode_invoke(f.payload);
  if (!decoded) {
    Log::warn("invoke", "malformed invoke_req dropped");
    return;
  }
  const HostAddr caller = f.src_host;
  const std::uint64_t seq = f.seq;
  const std::uint32_t tenant = f.tenant;
  execute_local(
      decoded->fn, std::move(decoded->args), std::move(decoded->inline_arg),
      [this, caller, seq, tenant](Result<Bytes> r, const InvokeStats&) {
        Frame resp;
        resp.type = MsgType::invoke_resp;
        resp.dst_host = caller;
        resp.seq = seq;
        resp.tenant = tenant;
        BufWriter w;
        if (r) {
          w.put_u16(0);
          w.put_blob(*r);
        } else {
          w.put_u16(static_cast<std::uint16_t>(r.error().code));
          w.put_string(r.error().message);
        }
        resp.payload = std::move(w).take();
        service_.host().send_frame(std::move(resp));
      });
}

}  // namespace objrpc
