#include "core/cluster.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/env.hpp"

namespace objrpc {

namespace {

bool invariants_enabled(const ClusterConfig& cfg) {
  if (cfg.check_invariants >= 0) return cfg.check_invariants != 0;
  return env_truthy("CHECK_INVARIANTS");
}

/// Resolve an export path: explicit config wins, else the environment
/// variable, else empty (export off).
std::string export_path(const std::string& configured, const char* env_var) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv(env_var);
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace

Cluster::~Cluster() {
  if (!trace_file_.empty() &&
      !fabric_->network().tracer().export_chrome_trace(trace_file_)) {
    std::fprintf(stderr, "cluster: trace export failed: %s\n",
                 trace_file_.c_str());
  }
  if (!metrics_file_.empty()) {
    const std::string json = fabric_->network().metrics().to_json();
    if (std::FILE* f = std::fopen(metrics_file_.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cluster: metrics export failed: %s\n",
                   metrics_file_.c_str());
    }
  }
  if (!checker_) return;
  if (const char* path = std::getenv("CHECK_DIGEST_FILE")) {
    if (std::FILE* f = std::fopen(path, "a")) {
      std::fprintf(f, "digest=%016" PRIx64 " events=%" PRIu64 " violations=%zu\n",
                   fabric_->network().wire_digest(),
                   checker_->events_observed(),
                   checker_->violations().size());
      std::fclose(f);
    }
  }
}

std::unique_ptr<Cluster> Cluster::build(const ClusterConfig& cfg) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->fabric_ = Fabric::build(cfg.fabric);
  // Observability arming.  Tracing records passively (id allocation is
  // unconditional and deterministic), so arming cannot perturb the
  // simulation or the wire digest.
  cluster->trace_file_ = export_path(cfg.trace_file, "OBS_TRACE_FILE");
  cluster->metrics_file_ = export_path(cfg.metrics_file, "OBS_METRICS_FILE");
  if (!cluster->trace_file_.empty()) {
    cluster->fabric_->network().tracer().arm();
  }
  cluster->code_ = std::make_unique<CodeRegistry>(
      IdAllocator(cluster->fabric_->network().rng().fork(0xC0DE)));
  for (std::size_t i = 0; i < cluster->fabric_->host_count(); ++i) {
    cluster->fetchers_.push_back(
        std::make_unique<ObjectFetcher>(cluster->fabric_->service(i)));
    cluster->runtimes_.push_back(std::make_unique<InvokeRuntime>(
        cluster->fabric_->service(i), *cluster->code_,
        *cluster->fetchers_.back()));
    cluster->replicas_.push_back(std::make_unique<ReplicaManager>(
        cluster->fabric_->service(i), *cluster->fetchers_.back()));
    HostProfile prof;
    prof.addr = cluster->fabric_->host(i).addr();
    prof.compute_ops_per_ns =
        i < cfg.compute_rates.size() ? cfg.compute_rates[i] : 1.0;
    prof.load = i < cfg.loads.size() ? cfg.loads[i] : 0.0;
    prof.mem_available = cluster->fabric_->host(i).store().bytes_available();
    cluster->profiles_.push_back(prof);
  }
  if (invariants_enabled(cfg)) {
    // Armed runs treat scheduling into the past as a hard causality
    // violation (EventLoop aborts with the offending times); unarmed
    // runs clamp and count (simcore/clamped_past_schedules).
    cluster->fabric_->loop().set_strict_past_schedules(true);
    auto& checker = cluster->checker_;
    checker = std::make_unique<check::InvariantChecker>(
        cluster->fabric_->network());
    for (std::size_t i = 0; i < cluster->fabric_->host_count(); ++i) {
      checker->attach_host(cluster->fabric_->host(i),
                           cluster->fabric_->service(i),
                           *cluster->fetchers_[i], *cluster->replicas_[i]);
    }
    if (ControllerNode* ctl = cluster->fabric_->controller()) {
      checker->attach_controller(*ctl);
    }
    for (std::size_t i = 0; i < cluster->fabric_->switch_count(); ++i) {
      // No-op unless the switch's fair queueing is armed.
      checker->attach_fair_queue(cluster->fabric_->switch_at(i));
    }
    check::InvariantChecker* ck = checker.get();
    cluster->fabric_->loop().set_drain_hook([ck] { ck->on_quiesce(); });
  } else {
    // An explicit check_invariants=0 overrides the CHECK_INVARIANTS
    // environment default the loop constructor picked up.
    cluster->fabric_->loop().set_strict_past_schedules(false);
  }
  // Multi-core opt-in (OBJRPC_SHARDS=N): partition the fabric with the
  // generic switch-group planner.  Last build step, after every node
  // exists.  Armed observers (the invariant checker's taps, an armed
  // tracer) do not force the serial driver: their observations defer
  // into the per-shard journal and replay in canonical order at each
  // barrier, so the run stays concurrent and the event order, wire
  // bytes, and trace files are identical either way (DESIGN.md §17).
  cluster->fabric_->network().maybe_shard_from_env();
  return cluster;
}

Result<ObjectPtr> Cluster::create_object(std::size_t i, std::uint64_t size) {
  auto obj = fabric_->service(i).create_object(size);
  if (!obj) return obj;
  directory_[(*obj)->id()] = DirEntry{fabric_->host(i).addr(), size};
  return obj;
}

void Cluster::track_object(ObjectId id, std::size_t host_index,
                           std::uint64_t bytes) {
  fabric_->service(host_index).discovery().on_created(id);
  directory_[id] = DirEntry{fabric_->host(host_index).addr(), bytes};
}

void Cluster::move_object(ObjectId id, std::size_t from, std::size_t to,
                          MoveCallback cb) {
  // A cached replica at the destination would collide with adoption.
  fetcher(to).evict(id);
  const HostAddr dst = fabric_->host(to).addr();
  fabric_->service(from).move_object(
      id, dst, [this, id, dst, cb = std::move(cb)](Status s) {
        if (s) {
          auto it = directory_.find(id);
          if (it != directory_.end()) it->second.home = dst;
        }
        if (cb) cb(s);
      });
}

Result<HostAddr> Cluster::home_of(ObjectId id) const {
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Error{Errc::not_found, "object not in cluster directory"};
  }
  return it->second.home;
}

Result<std::uint64_t> Cluster::size_of(ObjectId id) const {
  auto it = directory_.find(id);
  if (it == directory_.end()) {
    return Error{Errc::not_found, "object not in cluster directory"};
  }
  return it->second.bytes;
}

Result<std::size_t> Cluster::index_of(HostAddr addr) const {
  for (std::size_t i = 0; i < fabric_->host_count(); ++i) {
    if (fabric_->host(i).addr() == addr) return i;
  }
  return Error{Errc::not_found, "no host with that address"};
}

void Cluster::invoke(std::size_t invoker, FuncId fn,
                     std::vector<GlobalPtr> args, Bytes inline_arg,
                     InvokeCallback cb, InvokeOptions opts) {
  auto entry = code_->lookup(fn);
  if (!entry) {
    if (cb) cb(entry.error(), InvokeStats{});
    return;
  }
  PlacementRequest req;
  req.code = (*entry)->cost;
  req.invoker = fabric_->host(invoker).addr();
  req.inline_bytes = inline_arg.size();
  for (const auto& a : args) {
    ArgPlacement ap;
    ap.ptr = a;
    auto it = directory_.find(a.object);
    if (it != directory_.end()) {
      ap.bytes = it->second.bytes;
      ap.home = it->second.home;
    }
    req.args.push_back(ap);
  }
  // Refresh memory availability — placement must respect capacity.
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    profiles_[i].mem_available = fabric_->host(i).store().bytes_available();
  }
  auto decision = placement_engine_.decide(req, profiles_);
  if (!decision) {
    if (cb) cb(decision.error(), InvokeStats{});
    return;
  }
  runtimes_.at(invoker)->invoke_at(decision->executor, fn, std::move(args),
                                   std::move(inline_arg), std::move(cb),
                                   opts);
}

void Cluster::invoke_at(std::size_t invoker, HostAddr executor, FuncId fn,
                        std::vector<GlobalPtr> args, Bytes inline_arg,
                        InvokeCallback cb, InvokeOptions opts) {
  runtimes_.at(invoker)->invoke_at(executor, fn, std::move(args),
                                   std::move(inline_arg), std::move(cb),
                                   opts);
}

}  // namespace objrpc
