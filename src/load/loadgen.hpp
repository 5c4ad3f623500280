// Open-loop multi-tenant load generator (DESIGN.md §13).
//
// Models whole tenant populations — up to millions of logical users —
// as per-tenant open-loop arrival streams over a Cluster's hosts.  Each
// tenant gets an arrival process (arrival.hpp), a Zipf object-popularity
// law over its own object pool (zipf.hpp), a read/write/invoke
// operation mix, and a wire-level tenant tag that the fabric's fair
// queueing and admission control classify on.  Everything is driven
// from the cluster's event loop and drawn from forked Rng substreams:
// a load run is a pure function of (config, cluster seed), and the
// issued-operation stream folds into a digest the determinism tests
// compare across runs.
//
// Measurement follows the open-loop discipline, which avoids
// coordinated omission: a closed-loop driver measures latency from the
// moment it SENDS each request, but it only sends when the previous
// reply came back, so a stall quietly suppresses the very samples that
// would have recorded it.  Here every operation's response time runs
// from its INTENDED arrival, so time spent queued client-side — behind
// a saturated in-flight window — is charged to the system, not silently
// omitted; the service time (from the actual send) is kept beside it,
// and the gap between the two exposes the omission.  Per-tenant response/service histograms and operation
// counters live in the cluster's obs registry under load/<tenant>/...,
// and report() condenses them into per-tenant SLO rows (p50/p99/p999 +
// goodput).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/cluster.hpp"
#include "load/arrival.hpp"
#include "load/zipf.hpp"

namespace objrpc::load {

/// Relative operation weights; they need not sum to 1.
struct OpMix {
  double read = 0.7;
  double write = 0.25;
  double invoke = 0.05;
};

struct TenantSpec {
  /// Wire-level tenant tag (>= 1; 0 is the infrastructure class).
  std::uint32_t tenant = 1;
  /// Registry prefix and report label.
  std::string name = "tenant";
  ArrivalConfig arrival{};
  /// Logical user population.  Users do not exist individually — the
  /// arrival process already models their aggregate — but the user id
  /// drawn per operation picks the issuing client host deterministically
  /// (user % client_hosts), so populations spread over the host set.
  std::uint64_t users = 1'000'000;
  /// Zipf exponent of the object popularity law (0 = uniform).
  double zipf_s = 1.0;
  std::size_t object_count = 64;
  std::uint64_t object_bytes = 4096;
  OpMix mix{};
  std::uint32_t read_bytes = 256;
  std::uint32_t write_bytes = 256;
  /// Host index whose store homes this tenant's objects.
  std::size_t home_host = 0;
  /// Host indices issuing this tenant's operations (empty = home_host).
  /// Each operation executes on its client host's shard.
  std::vector<std::size_t> client_hosts{};
  /// Per-access transport knobs (the tenant tag is stamped on top).
  SimDuration access_timeout = 500 * kMillisecond;
  int max_attempts = 2;
  /// Client-side concurrency window of EACH client host (a tenant with
  /// N clients has N windows); 0 = unlimited (pure open-loop).  With a
  /// window, arrivals beyond it queue at their client host with their
  /// intended timestamps — the configuration that makes the
  /// coordinated-omission gap between resp and svc visible.
  std::uint64_t max_in_flight_per_client = 0;
};

struct LoadConfig {
  std::vector<TenantSpec> tenants{};
  /// Arrivals are generated for [start, start + duration).
  SimDuration duration = 1000 * kMillisecond;
  /// Substream label folded into every per-tenant Rng fork.
  std::uint64_t seed = 0x10AD;
};

/// One tenant's SLO row (times in microseconds).
struct TenantSlo {
  std::uint32_t tenant = 0;
  std::string name;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  /// Payload bytes of successful operations per second of load window.
  double goodput_bytes_per_sec = 0.0;
  /// Response time: completion - intended arrival (open-loop, honest).
  double resp_p50_us = 0.0;
  double resp_p99_us = 0.0;
  double resp_p999_us = 0.0;
  /// Service time: completion - actual send (the closed-loop column).
  double svc_p50_us = 0.0;
  double svc_p99_us = 0.0;
  double svc_p999_us = 0.0;

  std::string to_string() const;
};

class LoadGenerator {
 public:
  /// Creates each tenant's object pool on its home host and registers
  /// the echo function invoked ops call.  The cluster must outlive the
  /// generator.
  LoadGenerator(Cluster& cluster, LoadConfig cfg);

  /// Schedule every tenant's arrival stream, starting from loop.now().
  /// Call from setup or control-lane code.  The caller pumps the loop
  /// (settle()/run()); all arrivals land in [now, now + cfg.duration).
  void start();

  /// Arrived operations whose reply (or final failure) has not landed
  /// yet, backlogged ones included.  Read between loop runs.
  std::uint64_t in_flight() const;

  /// Order-sensitive fold over every ISSUED operation (tenant, kind,
  /// object, user, intended time), in draw order — the op stream
  /// identity, compared byte-for-byte by the determinism tests.
  /// Completion order does not fold here; the wire digest covers it.
  std::uint64_t stream_digest() const { return digest_; }

  /// Per-tenant SLO rows, in config order.  Call after the loop drains.
  std::vector<TenantSlo> report() const;

  const LoadConfig& config() const { return cfg_; }

 private:
  enum class OpKind : std::uint8_t { read, write, invoke };

  struct Op {
    SimTime intended = 0;
    OpKind kind = OpKind::read;
    std::size_t object = 0;
    std::uint64_t user = 0;
  };

  /// One client host's share of a tenant.  Touched only by events that
  /// execute as that host (arrivals and completions), so a tenant's
  /// clients on different shards never share a window.
  struct ClientState {
    NodeId node = kInvalidNode;
    /// Arrivals waiting for an in-flight slot (max_in_flight_per_client > 0).
    std::deque<Op> backlog;
    std::uint64_t in_flight = 0;
  };

  struct TenantState {
    TenantSpec spec;
    ArrivalProcess arrivals;
    ZipfTable zipf;
    Rng rng;  // op-shaping draws (kind, object, user)
    std::vector<ObjectId> objects;
    HostAddr home_addr = kUnspecifiedHost;
    std::vector<ClientState> clients;  // parallel to spec.client_hosts
    /// Latest arrival drawn so far (the refill cursor).
    SimTime drawn_until = 0;
    // Tenant rows: written by refills (issued) and by journaled
    // completion records, both on the control lane in a parallel run.
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    std::uint64_t goodput_bytes = 0;
    obs::Histogram* resp_us = nullptr;  // registry-owned
    obs::Histogram* svc_us = nullptr;

    TenantState(TenantSpec s, ArrivalProcess a, ZipfTable z, Rng r)
        : spec(std::move(s)), arrivals(a), zipf(std::move(z)), rng(r) {}
  };

  /// Draw the tenant's next batch of arrivals, inject each on its
  /// client host, and chain the next refill (control lane).
  void refill(std::size_t ti);
  void on_arrival(std::size_t ti, std::size_t ci, const Op& op);
  void issue(std::size_t ti, std::size_t ci, const Op& op);
  void complete(std::size_t ti, std::size_t ci, const Op& op, SimTime sent,
                bool ok, std::uint64_t payload_bytes);
  void fold_stream(std::uint64_t x) {
    digest_ = mix64(digest_ ^ mix64(x + 0x9E3779B97F4A7C15ULL));
  }

  Cluster& cluster_;
  LoadConfig cfg_;
  FuncId echo_fn_{};
  std::vector<std::unique_ptr<TenantState>> tenants_;
  SimTime start_ = 0;
  SimTime deadline_ = 0;
  std::uint64_t digest_ = 0x243F6A8885A308D3ULL;
};

}  // namespace objrpc::load
