// RPC middleware: the indirection layers §1 says operators deploy to
// soften RPC's location-centricity — "discovery services, load
// balancers, or other forms of middleware … make the execution endpoint
// abstract, but at the cost of increased latency and added system
// complexity."  ABL-MIDDLEWARE measures that cost.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/rpc_core.hpp"

namespace objrpc {

/// A name service: maps service names to host addresses.  Runs as an
/// ordinary RPC server ("resolve"), so every resolution is a full RPC
/// round trip before the real call can start.
class DirectoryService {
 public:
  explicit DirectoryService(HostNode& host);

  void register_service(const std::string& name, HostAddr where) {
    entries_[name] = where;
  }
  std::uint64_t resolutions() const { return resolutions_; }

  /// Client-side helper: resolve `name` at directory `dir`, then hand
  /// the address to `cb`.
  static void resolve(RpcClient& client, HostAddr dir,
                      const std::string& name,
                      std::function<void(Result<HostAddr>)> cb);

 private:
  RpcServer server_;
  std::unordered_map<std::string, HostAddr> entries_;
  std::uint64_t resolutions_ = 0;
};

/// An L7 load balancer: accepts invoke_req frames and relays them to a
/// backend chosen round-robin, then relays the response back.  Adds one
/// proxy hop (and its marshalling) to every call.
class LoadBalancer {
 public:
  LoadBalancer(HostNode& host, std::vector<HostAddr> backends);

  std::uint64_t relayed() const { return relayed_; }

 private:
  void on_request(const Frame& f);
  void on_response(const Frame& f);

  HostNode& host_;
  std::vector<HostAddr> backends_;
  std::size_t next_backend_ = 0;
  /// LB-local call id -> (original caller, original call id).
  struct Relay {
    HostAddr caller;
    std::uint64_t caller_call_id;
  };
  std::unordered_map<std::uint64_t, Relay> relays_;
  std::uint64_t next_relay_id_ = 1;
  std::uint64_t relayed_ = 0;
};

}  // namespace objrpc
