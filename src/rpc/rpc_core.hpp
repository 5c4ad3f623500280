// RPC client and server runtimes over the simulated network.
//
// The cost model is explicit: every call pays serialization at four
// points (encode args, decode args, encode result, decode result), and
// the fixed marshalling rate converts payload bytes into simulated
// CPU time — the "70% of processing time" §2 attributes to
// deserializing and loading at request time.  Larger arguments therefore
// hurt twice: wire time and marshalling time.  Compare ObjNetService,
// which moves raw object bytes and pays neither.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "net/host_node.hpp"
#include "sim/deadline_timer.hpp"

namespace objrpc {

/// Simulated CPU time of one marshalling step over `bytes` of payload,
/// charged alike by client, server and proxy: a fixed 1 us of software
/// overhead plus 0.5 ns per byte (2 GB/s).
constexpr SimDuration rpc_marshal_time(std::size_t bytes) {
  constexpr SimDuration kFixed = 1 * kMicrosecond;
  constexpr double kNsPerByte = 0.5;
  return kFixed +
         static_cast<SimDuration>(kNsPerByte * static_cast<double>(bytes));
}

struct RpcCallOptions {
  SimDuration timeout = 50 * kMillisecond;
  int max_attempts = 3;
};

struct RpcCallStats {
  int attempts = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  std::uint64_t bytes_sent = 0;
  SimDuration elapsed() const { return finished_at - started_at; }
};

using RpcResponseCallback =
    std::function<void(Result<Bytes>, const RpcCallStats&)>;

/// Client stub: location-addressed calls with at-least-once retry.
class RpcClient {
 public:
  explicit RpcClient(HostNode& host);

  /// Invoke `method` on the service at `dst` with serialized `args`.
  void call(HostAddr dst, const std::string& method, Bytes args,
            RpcResponseCallback cb, RpcCallOptions opts = {});

  // fablint:allow(raw-counter) rpc baseline is frozen for the paper comparison
  struct Counters {
    std::uint64_t calls = 0;
    std::uint64_t responses = 0;
    std::uint64_t errors = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
  };
  const Counters& counters() const { return counters_; }
  /// Call-attempt deadlines, keyed by call id.
  const DeadlineTimer<std::uint64_t>& deadline_timer() const { return timer_; }

 private:
  struct PendingCall {
    HostAddr dst;
    std::string method;
    Bytes args;
    RpcResponseCallback cb;
    RpcCallOptions opts;
    RpcCallStats stats;
  };

  void attempt(std::uint64_t call_id);
  void finish(std::uint64_t call_id, Result<Bytes> result);
  void on_response(const Frame& f);

  HostNode& host_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_call_id_ = 1;
  /// An attempt's deadline retries the call (attempt).
  DeadlineTimer<std::uint64_t> timer_;
  Counters counters_;
};

/// Server skeleton: a method table.  Handlers receive serialized args
/// and produce a serialized result asynchronously.
class RpcServer {
 public:
  using ReplyFn = std::function<void(Result<Bytes>)>;
  using MethodHandler =
      std::function<void(HostAddr caller, ByteSpan args, ReplyFn reply)>;

  explicit RpcServer(HostNode& host);

  void register_method(const std::string& name, MethodHandler handler);

  // fablint:allow(raw-counter) rpc baseline is frozen for the paper comparison
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t replies = 0;
    std::uint64_t unknown_method = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void on_request(const Frame& f);
  void send_reply(HostAddr dst, std::uint64_t call_id, Result<Bytes> result);

  HostNode& host_;
  std::unordered_map<std::string, MethodHandler> methods_;
  Counters counters_;
};

}  // namespace objrpc
