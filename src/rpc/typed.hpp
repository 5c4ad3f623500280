// Typed RPC stubs: schema-checked calls over the baseline RPC runtime.
//
// Production RPC frameworks (gRPC, Thrift) marshal STRUCTURED messages,
// not raw byte blobs — and that is exactly where §2's serialization tax
// comes from.  This layer binds the wire codec (serialize/wire.hpp) to
// the client/server runtimes: arguments and results are schema-described
// Messages, encoded on call, decoded on dispatch, re-encoded for the
// reply, and decoded again at the caller.  Four marshalling steps per
// call, each one also charged in simulated time (rpc_marshal_time).
#pragma once

#include "rpc/rpc_core.hpp"
#include "serialize/wire.hpp"

namespace objrpc {

using TypedResponseCallback =
    std::function<void(Result<Message>, const RpcCallStats&)>;

/// Client stub for schema-checked calls.
class TypedRpcClient {
 public:
  TypedRpcClient(HostNode& host, const SchemaRegistry& registry)
      : client_(host), codec_(registry) {}

  /// Call `method` with `args`; the reply is decoded against
  /// `response_schema`.  Encoding failures surface before any traffic.
  void call(HostAddr dst, const std::string& method, const Message& args,
            std::uint32_t response_schema, TypedResponseCallback cb,
            RpcCallOptions opts = {});

  RpcClient& raw() { return client_; }

 private:
  RpcClient client_;
  Codec codec_;
};

/// Server skeleton for schema-checked methods.
class TypedRpcServer {
 public:
  using TypedReplyFn = std::function<void(Result<Message>)>;
  using TypedHandler = std::function<void(HostAddr caller, const Message&,
                                          TypedReplyFn reply)>;

  TypedRpcServer(HostNode& host, const SchemaRegistry& registry)
      : server_(host), codec_(registry) {}

  /// Register `name` taking `request_schema` messages.  Malformed or
  /// wrong-schema requests are rejected with `malformed` before the
  /// handler runs.
  void register_method(const std::string& name, std::uint32_t request_schema,
                       TypedHandler handler);

  RpcServer& raw() { return server_; }

 private:
  RpcServer server_;
  Codec codec_;
};

}  // namespace objrpc
