// Cluster: the top-level public API of the library (DESIGN.md §5).
//
// A Cluster is a simulated deployment — fabric, hosts, per-host runtimes
// (service + fetcher + invocation engine), a shared code registry, and
// the system-level knowledge (object directory + host profiles) that the
// placement engine draws on.  The headline call is `invoke`: name a
// function and some data references from any host, and the SYSTEM
// decides where the rendezvous happens and moves data on demand.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/placement.hpp"
#include "core/replication.hpp"
#include "core/runtime.hpp"
#include "crdt/crdt.hpp"
#include "net/fabric.hpp"

namespace objrpc {

struct ClusterConfig {
  FabricConfig fabric{};
  /// Per-host compute rates (ops/ns); padded with 1.0 if shorter than
  /// the host count.
  std::vector<double> compute_rates{};
  /// Per-host initial load in [0,1); padded with 0.
  std::vector<double> loads{};
  /// Online invariant checking (src/check): 1 = on, 0 = off, -1 = follow
  /// the CHECK_INVARIANTS environment variable.  The checker observes
  /// through passive hooks only, so enabling it leaves the simulation's
  /// event stream byte-identical.
  int check_invariants = -1;
  /// Causal tracing (src/obs): path to write Chrome trace_event JSON on
  /// teardown.  Empty = follow the OBS_TRACE_FILE environment variable
  /// (unset/empty = tracing stays disarmed).  Arming only toggles
  /// recording — trace/span ids are allocated either way, so the wire
  /// bytes and the wire digest are identical armed or not.
  std::string trace_file{};
  /// Metrics registry JSON dump path on teardown.  Empty = follow the
  /// OBS_METRICS_FILE environment variable (unset/empty = no dump).
  std::string metrics_file{};
};

class Cluster {
 public:
  static std::unique_ptr<Cluster> build(const ClusterConfig& cfg);
  /// Appends a wire-digest line to $CHECK_DIGEST_FILE when the checker
  /// ran (the determinism auditor diffs those files across same-seed
  /// runs).
  ~Cluster();

  Fabric& fabric() { return *fabric_; }
  EventLoop& loop() { return fabric_->loop(); }
  CodeRegistry& code() { return *code_; }
  PlacementEngine& placement() { return placement_engine_; }

  std::size_t host_count() const { return fabric_->host_count(); }
  HostNode& host(std::size_t i) { return fabric_->host(i); }
  ObjNetService& service(std::size_t i) { return fabric_->service(i); }
  ObjectFetcher& fetcher(std::size_t i) { return *fetchers_.at(i); }
  InvokeRuntime& runtime(std::size_t i) { return *runtimes_.at(i); }
  ReplicaManager& replicas(std::size_t i) { return *replicas_.at(i); }

  /// Push a read replica of `id` (homed on host `from`) to host `to`.
  void replicate_object(ObjectId id, std::size_t from, std::size_t to,
                        std::function<void(Status)> cb) {
    replicas_.at(from)->replicate(id, addr_of(to), std::move(cb));
  }
  HostProfile& profile(std::size_t i) { return profiles_.at(i); }

  /// Create an object on host `i`, tracked in the cluster directory.
  Result<ObjectPtr> create_object(std::size_t i, std::uint64_t size);

  /// Track an object that was built directly in a host's store (e.g. by
  /// a workload generator): registers it with the host's discovery
  /// plane and the cluster directory.
  void track_object(ObjectId id, std::size_t host_index,
                    std::uint64_t bytes);

  /// Move an object between hosts, keeping the directory current.
  void move_object(ObjectId id, std::size_t from, std::size_t to,
                   MoveCallback cb);

  /// Where the directory believes `id` lives.
  Result<HostAddr> home_of(ObjectId id) const;
  /// Size (bytes) of the object as created through the cluster.
  Result<std::uint64_t> size_of(ObjectId id) const;

  /// The paper's API: invoke `fn` over `args` from host `invoker`; the
  /// placement engine chooses the executor.  The decision is surfaced in
  /// InvokeStats::executor.
  void invoke(std::size_t invoker, FuncId fn, std::vector<GlobalPtr> args,
              Bytes inline_arg, InvokeCallback cb, InvokeOptions opts = {});

  /// Explicit placement (Fig. 1 strategies 1 and 2, and tests).
  void invoke_at(std::size_t invoker, HostAddr executor, FuncId fn,
                 std::vector<GlobalPtr> args, Bytes inline_arg,
                 InvokeCallback cb, InvokeOptions opts = {});

  /// Merge a CRDT payload into an object that stores one (used when
  /// replicas of progressive objects meet during movement, §5).
  template <typename Crdt>
  Result<Crdt> merge_crdt_payload(ObjectPtr obj, std::uint64_t offset,
                                  const Crdt& incoming);

  void settle() { fabric_->settle(); }
  HostAddr addr_of(std::size_t i) { return fabric_->host(i).addr(); }

  /// The invariant checker, when enabled (null otherwise).  Tests and
  /// benches that hand-build components (e.g. an IncCacheStage) should
  /// attach them here so the checker sees their lifecycle too.
  check::InvariantChecker* checker() { return checker_.get(); }
  /// Index of the host with protocol address `addr`.
  Result<std::size_t> index_of(HostAddr addr) const;

  /// Fabric-wide metrics registry / causal tracer (src/obs).
  obs::MetricsRegistry& metrics() { return fabric_->network().metrics(); }
  obs::Tracer& tracer() { return fabric_->network().tracer(); }

 private:
  Cluster() = default;

  std::unique_ptr<Fabric> fabric_;
  /// Declared after fabric_: destroyed first, while the network (whose
  /// taps and drain hook reference it) is still alive.
  std::unique_ptr<check::InvariantChecker> checker_;
  std::unique_ptr<CodeRegistry> code_;
  std::vector<std::unique_ptr<ObjectFetcher>> fetchers_;
  std::vector<std::unique_ptr<InvokeRuntime>> runtimes_;
  std::vector<std::unique_ptr<ReplicaManager>> replicas_;
  std::vector<HostProfile> profiles_;
  PlacementEngine placement_engine_;
  struct DirEntry {
    HostAddr home;
    std::uint64_t bytes;
  };
  std::unordered_map<ObjectId, DirEntry> directory_;
  /// Export destinations resolved at build time (config or environment).
  std::string trace_file_;
  std::string metrics_file_;
};

// --- inline/template implementations ---

template <typename Crdt>
Result<Crdt> Cluster::merge_crdt_payload(ObjectPtr obj, std::uint64_t offset,
                                         const Crdt& incoming) {
  // Layout: u32 length, then the encoded CRDT state.
  auto len_raw = obj->read(offset, 4);
  if (!len_raw) return len_raw.error();
  std::uint32_t len;
  std::memcpy(&len, len_raw->data(), 4);
  auto body = obj->read(offset + 4, len);
  if (!body) return body.error();
  auto local = Crdt::decode(*body);
  if (!local) return local.error();
  local->merge(incoming);
  const Bytes merged = local->encode();
  BufWriter w(4 + merged.size());
  w.put_u32(static_cast<std::uint32_t>(merged.size()));
  w.put_bytes(merged);
  if (Status s = obj->write(offset, w.view()); !s) return s.error();
  return std::move(*local);
}

/// Write an initial CRDT state into an object at `offset` using the
/// layout merge_crdt_payload expects.  Returns bytes consumed.
template <typename Crdt>
Result<std::uint64_t> store_crdt_payload(ObjectPtr obj, std::uint64_t offset,
                                         const Crdt& value) {
  const Bytes encoded = value.encode();
  BufWriter w(4 + encoded.size());
  w.put_u32(static_cast<std::uint32_t>(encoded.size()));
  w.put_bytes(encoded);
  if (Status s = obj->write(offset, w.view()); !s) return s.error();
  return static_cast<std::uint64_t>(w.size());
}

/// Read a CRDT state back out.
template <typename Crdt>
Result<Crdt> load_crdt_payload(const ObjectPtr& obj, std::uint64_t offset) {
  auto len_raw = obj->read(offset, 4);
  if (!len_raw) return len_raw.error();
  std::uint32_t len;
  std::memcpy(&len, len_raw->data(), 4);
  auto body = obj->read(offset + 4, len);
  if (!body) return body.error();
  return Crdt::decode(*body);
}

}  // namespace objrpc
