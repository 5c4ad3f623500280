// Simulator-core throughput bench: event-loop hot path and a routed
// 1024-host leaf-spine fabric.
//
// Two measurements, both written to BENCH_simcore.json:
//
//  1. `loop_*` — raw event-loop throughput on self-rescheduling event
//     chains whose closures capture a 48-byte payload (the shape of the
//     fabric's transmit/pipeline lambdas).  The same workload runs
//     against an in-process replica of the old loop (std::priority_queue
//     of {time, seq, std::function} nodes, move-out-of-top const_cast
//     included), so `speedup_vs_legacy` is a machine-independent ratio
//     that CI can gate on.
//
//  2. `fabric_*` — a 32x32x32 leaf-spine (1024 hosts, 64 switches) with
//     every switch forwarding on an exact-match destination key, driven
//     by an open-loop packet schedule and run under an ARMED invariant
//     checker.  Reports events/sec, delivered packets/sec, and the
//     sim-time/wall-time ratio.  Checker violations fail the bench.
//
//  3. `shards_*` — the same open-loop workload swept over 1/2/4/8
//     shards on two fabrics (the 32x32x32 leaf-spine and a 1024-host
//     fat-tree, k=16), wire digest armed.  Every point must produce the
//     1-shard digest byte-for-byte (`shards_digest_match`); the scaling
//     ratios are gated by tools/simcore_gate.py only when the machine
//     has the cores to show them (`cores`).
//
//  4. `shards_armed_*` — the 4-shard leaf-spine point re-run with the
//     full observer plane armed (tracer + invariant checker + shard
//     profiler, all riding the per-shard journal of DESIGN.md §17)
//     against the unarmed 4-shard leg.  The armed run must stay on the
//     concurrent driver, reproduce the serial digest, and cost at most
//     1.15x (gated).  The profiler's shard/* metrics land in the JSON
//     under `shard_profile_metrics`.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "check/checker.hpp"
#include "common/rng.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "sim/switch_node.hpp"
#include "sim/topology.hpp"

namespace objrpc {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- part 1: event-loop chains ----------------------------------------------

/// The pre-refactor loop, kept here as the bench's fixed reference:
/// binary priority_queue over fat nodes, std::function callbacks (heap
/// allocation for any capture beyond two pointers), and the
/// move-out-of-top const_cast the intrusive heap was built to remove.
class LegacyLoop {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  void schedule_at(SimTime at, Callback fn) {
    if (at < now_) at = now_;
    queue_.push(Event{at, seq_++, std::move(fn)});
  }

  void run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.at;
      ev.fn();
    }
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Callback fn;
    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
};

/// Capture shaped like the fabric's hot closures: big enough that
/// std::function heap-allocates it, small enough that SmallFn keeps it
/// inline.
struct Payload {
  std::uint64_t a, b, c, d, e, f;
};

template <typename Loop>
void arm_chain(Loop& loop, SimTime at, Payload p, std::uint64_t& remaining,
               std::uint64_t& sink) {
  loop.schedule_at(at, [&loop, p, &remaining, &sink] {
    sink += p.a ^ p.f;  // consume the capture so it cannot be elided
    if (remaining == 0) return;
    --remaining;
    Payload next = p;
    next.a += 1;
    next.f ^= sink;
    arm_chain(loop, loop.now() + 1 + (next.a % 7), next, remaining, sink);
  });
}

/// Events/sec over `total_events` callbacks spread across `chains`
/// concurrent self-rescheduling chains.  The chain count is the pending
/// event population: 64 models an idle fabric, a quarter million models
/// 1024 hosts with hundreds of in-flight frames each — the workload this
/// PR exists to make fast.
template <typename Loop>
double chain_events_per_sec(std::uint64_t total_events, std::uint32_t chains) {
  Loop loop;
  std::uint64_t remaining = total_events;
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  Rng rng(7);
  for (std::uint32_t c = 0; c < chains; ++c) {
    Payload p{rng.next_u64(), rng.next_u64(), rng.next_u64(),
              rng.next_u64(), rng.next_u64(), rng.next_u64()};
    arm_chain(loop, static_cast<SimTime>(c % 1024), p, remaining, sink);
  }
  loop.run();
  const double secs = seconds_since(start);
  if (sink == 0xDEAD) std::printf("(unreachable)\n");  // keep `sink` live
  // Every callback either consumes one of total_events or is a chain's
  // terminal no-reschedule pop: executed == total_events + chains.
  return static_cast<double>(total_events + chains) / secs;
}

/// Best of `reps` measurements (minimises scheduler/VM noise).
template <typename Loop>
double chain_best(std::uint64_t total_events, std::uint32_t chains,
                  int reps) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    best = std::max(best, chain_events_per_sec<Loop>(total_events, chains));
  }
  return best;
}

// --- part 2: routed 1024-host leaf-spine ------------------------------------

class BenchSink : public NetworkNode {
 public:
  BenchSink(Network& net, NodeId id, std::string name)
      : NetworkNode(net, id, std::move(name)) {}
  void on_packet(PortId, Packet pkt) override {
    ++delivered;
    bytes += pkt.data.size();
  }
  void transmit(PortId port, Packet pkt) { send(port, std::move(pkt)); }
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
};

struct FabricResult {
  double events_per_sec = 0;
  double packets_per_sec = 0;
  double sim_wall_ratio = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::size_t violations = 0;
};

std::optional<ParsedKey> dst_key_extractor(const Packet& pkt) {
  if (pkt.data.size() < 8) return std::nullopt;
  std::uint64_t dst = 0;
  for (int i = 0; i < 8; ++i) {
    dst |= std::uint64_t{pkt.data[static_cast<std::size_t>(i)]} << (8 * i);
  }
  return ParsedKey(U128{0, dst}, false);
}

/// 32x32x32 leaf-spine with every switch forwarding on the exact-match
/// destination key (spine -> leaf, leaf -> local host or up via the
/// host-indexed spine).
LeafSpineTopology build_routed_leaf_spine(Network& net,
                                          const LeafSpineParams& params) {
  SwitchConfig scfg;
  scfg.key_bits = 64;
  auto topo = build_leaf_spine(
      net, params,
      [&](const std::string& n) {
        return net.add_node<SwitchNode>(n, scfg).id();
      },
      [&](const std::string& n) { return net.add_node<BenchSink>(n).id(); });
  for (std::uint32_t s = 0; s < params.spines; ++s) {
    auto& sw = static_cast<SwitchNode&>(net.node(topo.spines[s]));
    sw.set_key_extractor(dst_key_extractor);
    for (std::uint64_t h = 0; h < topo.host_count(); ++h) {
      sw.table().insert(U128{0, h}, Action::forward_to(static_cast<PortId>(
                                        h / params.hosts_per_leaf)));
    }
  }
  for (std::uint32_t l = 0; l < params.leaves; ++l) {
    auto& sw = static_cast<SwitchNode&>(net.node(topo.leaves[l]));
    sw.set_key_extractor(dst_key_extractor);
    for (std::uint64_t h = 0; h < topo.host_count(); ++h) {
      const auto leaf_of =
          static_cast<std::uint32_t>(h / params.hosts_per_leaf);
      const PortId out =
          leaf_of == l
              ? static_cast<PortId>(params.spines + h % params.hosts_per_leaf)
              : static_cast<PortId>(h % params.spines);
      sw.table().insert(U128{0, h}, Action::forward_to(out));
    }
  }
  return topo;
}

/// 1024-host fat-tree (k=16) with deterministic exact-match routing:
/// upward port choice hashes on the destination index, so every
/// (src, dst) pair takes one fixed path (the digest needs that).
FatTreeTopology build_routed_fat_tree(Network& net,
                                      const FatTreeParams& params) {
  SwitchConfig scfg;
  scfg.key_bits = 64;
  auto topo = build_fat_tree(
      net, params,
      [&](const std::string& n) {
        return net.add_node<SwitchNode>(n, scfg).id();
      },
      [&](const std::string& n) { return net.add_node<BenchSink>(n).id(); });
  const std::uint64_t m = params.k / 2;
  const std::uint64_t hosts = topo.host_count();
  auto pod_of = [m](std::uint64_t h) { return h / (m * m); };
  auto edge_of = [m](std::uint64_t h) { return (h / m) % m; };
  for (std::uint64_t p = 0; p < params.k; ++p) {
    for (std::uint64_t e = 0; e < m; ++e) {
      auto& sw = static_cast<SwitchNode&>(net.node(topo.edges[p * m + e]));
      sw.set_key_extractor(dst_key_extractor);
      for (std::uint64_t h = 0; h < hosts; ++h) {
        const PortId out = (pod_of(h) == p && edge_of(h) == e)
                               ? static_cast<PortId>(h % m)
                               : static_cast<PortId>(m + h % m);
        sw.table().insert(U128{0, h}, Action::forward_to(out));
      }
    }
    for (std::uint64_t a = 0; a < m; ++a) {
      auto& sw = static_cast<SwitchNode&>(net.node(topo.aggs[p * m + a]));
      sw.set_key_extractor(dst_key_extractor);
      for (std::uint64_t h = 0; h < hosts; ++h) {
        const PortId out = pod_of(h) == p
                               ? static_cast<PortId>(edge_of(h))
                               : static_cast<PortId>(m + (h / m) % m);
        sw.table().insert(U128{0, h}, Action::forward_to(out));
      }
    }
  }
  for (NodeId core : topo.cores) {
    auto& sw = static_cast<SwitchNode&>(net.node(core));
    sw.set_key_extractor(dst_key_extractor);
    for (std::uint64_t h = 0; h < hosts; ++h) {
      sw.table().insert(U128{0, h},
                        Action::forward_to(static_cast<PortId>(pod_of(h))));
    }
  }
  return topo;
}

/// Open-loop injection: `packets` sends spread across sim time from
/// rng-chosen hosts, scheduled up front so the run is pure hot path.
/// schedule_on (not schedule_at) homes each send on its source's shard,
/// which also pins the canonical event key independent of shard count.
void inject_open_loop(Network& net, const std::vector<NodeId>& hosts,
                      std::uint64_t packets) {
  Rng workload(2026 ^ 0xBEEF);
  const std::uint64_t n = hosts.size();
  for (std::uint64_t i = 0; i < packets; ++i) {
    const auto src = static_cast<std::uint32_t>(workload.next_below(n));
    std::uint64_t dst = workload.next_below(n - 1);
    if (dst >= src) ++dst;
    Packet pkt;
    pkt.data.assign(64 + workload.next_below(1400), 0x5A);
    for (int b = 0; b < 8; ++b) {
      pkt.data[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(dst >> (8 * b));
    }
    const SimTime at = (i / 256) * kMicrosecond + workload.next_below(999);
    auto* host = static_cast<BenchSink*>(&net.node(hosts[src]));
    net.schedule_on(hosts[src], at, [host, pkt = std::move(pkt)]() mutable {
      host->transmit(0, std::move(pkt));
    });
  }
}

FabricResult run_fabric(std::uint64_t packets) {
  Network net(2026);
  LeafSpineParams params;
  params.spines = 32;
  params.leaves = 32;
  params.hosts_per_leaf = 32;
  auto topo = build_routed_leaf_spine(net, params);

  check::InvariantChecker checker(net);
  net.loop().set_drain_hook([&checker] { checker.on_quiesce(); });

  inject_open_loop(net, topo.hosts, packets);

  const auto start = std::chrono::steady_clock::now();
  net.loop().run();
  const double secs = seconds_since(start);

  FabricResult r;
  r.events = net.loop().events_executed();
  for (NodeId h : topo.hosts) {
    r.delivered += static_cast<const BenchSink&>(net.node(h)).delivered;
  }
  r.events_per_sec = static_cast<double>(r.events) / secs;
  r.packets_per_sec = static_cast<double>(r.delivered) / secs;
  r.sim_wall_ratio = static_cast<double>(net.loop().now()) / (secs * 1e9);
  r.violations = checker.violations().size();
  return r;
}

// --- part 3: shard-count sweep ----------------------------------------------

struct SweepPoint {
  std::uint32_t shards_applied = 0;
  double events_per_sec = 0;
  std::uint64_t digest = 0;
  std::uint64_t digest_events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cross_frames = 0;
  std::uint64_t epochs = 0;
  std::string metrics_json;  // filled when the shard profiler is armed
};

/// Observer plane for a sweep point.  Everything rides the per-shard
/// journal (DESIGN.md §17), so arming must not change the digest OR
/// drop the run back to the serial driver.
struct ArmedOpts {
  bool tracer = false;
  bool checker = false;
  bool profile = false;
  bool serial_driver = false;  // OBJRPC_SHARDS_SERIAL=1 for this run
};

/// One sweep run: build the fabric, partition it, arm the wire digest,
/// drive the open-loop workload.  `build` returns the host list after
/// calling enable_sharding for `shards` > 1.
template <typename BuildFn>
SweepPoint run_sweep_point(std::uint32_t shards, std::uint64_t packets,
                           BuildFn build, const ArmedOpts& armed = {}) {
  Network net(2026);
  if (armed.profile) net.arm_shard_profiler();  // before enable_sharding
  std::optional<check::InvariantChecker> checker;
  if (armed.checker) checker.emplace(net);
  // enable_sharding reads the kill switch: set, it builds no runner.
  if (armed.serial_driver) setenv("OBJRPC_SHARDS_SERIAL", "1", 1);
  const std::vector<NodeId> hosts = build(net, shards);
  if (armed.serial_driver) unsetenv("OBJRPC_SHARDS_SERIAL");
  if (armed.tracer) net.tracer().arm();
  net.arm_wire_digest();
  inject_open_loop(net, hosts, packets);
  const auto start = std::chrono::steady_clock::now();
  net.loop().run();
  const double secs = seconds_since(start);
  SweepPoint p;
  p.shards_applied = net.shard_count();
  p.events_per_sec = static_cast<double>(net.loop().events_executed()) / secs;
  p.digest = net.wire_digest();
  p.digest_events = net.wire_digest_events();
  for (NodeId h : hosts) {
    p.delivered += static_cast<const BenchSink&>(net.node(h)).delivered;
  }
  if (const ShardRunner* r = net.runner()) {
    p.cross_frames = r->cross_frames();
    p.epochs = r->epochs();
  }
  if (armed.profile) p.metrics_json = net.metrics().to_json();
  return p;
}

}  // namespace
}  // namespace objrpc

int main() {
  using namespace objrpc;

  constexpr std::uint64_t kFabricPackets = 20'000;

  // Chain workload at three pending-event populations.  64 chains is an
  // idle fabric (the heap barely sifts and both loops are body-bound);
  // 262144 chains is 1024 hosts with ~256 in-flight events each — the
  // scale this PR targets, where the legacy heap's log-n cache-missing
  // sifts collapse.  `speedup_vs_legacy` gates on the at-scale pair.
  struct Scale {
    std::uint32_t chains;
    std::uint64_t events;
    const char* tag;
  };
  constexpr Scale kScales[] = {
      {64, 4'000'000, "64"},
      {4096, 4'000'000, "4096"},
      {262144, 3'000'000, "262144"},
  };
  constexpr int kReps = 3;

  std::printf("simcore: event-loop chains (48B captures, best of %d)\n",
              kReps);
  (void)chain_events_per_sec<EventLoop>(200'000, 64);  // warm up allocator
  (void)chain_events_per_sec<LegacyLoop>(200'000, 64);

  bench::Table table({"chains", "wheel ev/s", "legacy ev/s", "ratio"});
  double loop_eps = 0, legacy_eps = 0, speedup = 0;
  bench::BenchJson json("simcore");
  for (const Scale& s : kScales) {
    loop_eps = chain_best<EventLoop>(s.events, s.chains, kReps);
    legacy_eps = chain_best<LegacyLoop>(s.events, s.chains, kReps);
    speedup = loop_eps / legacy_eps;
    table.row({static_cast<double>(s.chains), loop_eps, legacy_eps, speedup});
    std::string prefix = std::string("chains_") + s.tag;
    json.value((prefix + "_events_per_sec").c_str(), loop_eps);
    json.value((prefix + "_legacy_events_per_sec").c_str(), legacy_eps);
    json.value((prefix + "_speedup").c_str(), speedup);
  }
  // After the loop these hold the at-scale (last) measurement.

  std::printf("\nsimcore: routed 1024-host leaf-spine (%" PRIu64
              " packets, checker armed)\n\n",
              kFabricPackets);
  const FabricResult fabric = run_fabric(kFabricPackets);

  std::printf("%28s%16.3g\n", "loop_events_per_sec", loop_eps);
  std::printf("%28s%16.3g\n", "legacy_events_per_sec", legacy_eps);
  std::printf("%28s%16.2f\n", "speedup_vs_legacy", speedup);
  std::printf("%28s%16.3g\n", "fabric_events_per_sec",
              fabric.events_per_sec);
  std::printf("%28s%16.3g\n", "fabric_packets_per_sec",
              fabric.packets_per_sec);
  std::printf("%28s%16.2f\n", "sim_wall_ratio", fabric.sim_wall_ratio);
  std::printf("%28s%16" PRIu64 "\n", "fabric_events", fabric.events);
  std::printf("%28s%16" PRIu64 "\n", "fabric_delivered", fabric.delivered);
  std::printf("%28s%16zu\n", "checker_violations", fabric.violations);

  json.value("loop_events_per_sec", loop_eps);
  json.value("legacy_events_per_sec", legacy_eps);
  json.value("speedup_vs_legacy", speedup);
  json.value("fabric_events_per_sec", fabric.events_per_sec);
  json.value("fabric_packets_per_sec", fabric.packets_per_sec);
  json.value("sim_wall_ratio", fabric.sim_wall_ratio);
  json.value("fabric_events", static_cast<double>(fabric.events));
  json.value("fabric_delivered", static_cast<double>(fabric.delivered));
  json.value("checker_violations", static_cast<double>(fabric.violations));

  // --- shard sweep ----------------------------------------------------------
  constexpr std::uint64_t kSweepPackets = 10'000;
  constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};
  const std::uint32_t cores = std::thread::hardware_concurrency();

  auto ls_build = [](Network& net, std::uint32_t shards) {
    LeafSpineParams params;
    params.spines = 32;
    params.leaves = 32;
    params.hosts_per_leaf = 32;
    auto topo = build_routed_leaf_spine(net, params);
    if (shards > 1) {
      net.enable_sharding(ShardPlan::leaf_spine(net, topo, shards));
    }
    return topo.hosts;
  };
  auto ft_build = [](Network& net, std::uint32_t shards) {
    FatTreeParams params;
    params.k = 16;
    auto topo = build_routed_fat_tree(net, params);
    if (shards > 1) {
      net.enable_sharding(ShardPlan::fat_tree(net, topo, shards));
    }
    return topo.hosts;
  };

  std::printf("\nsimcore: shard sweep (%" PRIu64
              " packets, wire digest armed, %u hardware threads)\n\n",
              kSweepPackets, cores);
  std::printf("%12s%8s%14s%10s%10s%12s\n", "fabric", "shards", "ev/s",
              "scaling", "cross", "digest ok");
  bool digests_ok = true;
  bool lost_packets = false;
  struct Fabric {
    const char* tag;
    std::function<std::vector<NodeId>(Network&, std::uint32_t)> build;
  };
  const Fabric fabrics[] = {{"leafspine", ls_build}, {"fattree", ft_build}};
  std::uint64_t ls_serial_digest = 0;
  for (std::size_t f = 0; f < 2; ++f) {
    double base_eps = 0;
    std::uint64_t base_digest = 0;
    for (std::uint32_t n : kShardCounts) {
      const SweepPoint p =
          run_sweep_point(n, kSweepPackets, fabrics[f].build);
      if (n == 1) {
        base_eps = p.events_per_sec;
        base_digest = p.digest;
        if (f == 0) ls_serial_digest = p.digest;
      }
      const bool match = p.digest == base_digest;
      digests_ok = digests_ok && match;
      lost_packets = lost_packets || p.delivered != kSweepPackets;
      const double scaling = p.events_per_sec / base_eps;
      std::printf("%12s%8u%14.3g%10.2f%10" PRIu64 "%12s\n", fabrics[f].tag,
                  p.shards_applied, p.events_per_sec, scaling, p.cross_frames,
                  match ? "yes" : "NO");
      const std::string prefix = std::string("shards_") + fabrics[f].tag +
                                 "_" + std::to_string(n);
      json.value((prefix + "_events_per_sec").c_str(), p.events_per_sec);
      if (n == 4) {
        json.value(
            (std::string("shards_") + fabrics[f].tag + "_scaling_4").c_str(),
            scaling);
      }
    }
  }
  json.value("cores", static_cast<double>(cores));
  json.value("shards_digest_match", digests_ok ? 1.0 : 0.0);

  // --- armed-observer overhead at 4 shards (DESIGN.md §17) ------------------
  // Three legs, all 4-shard on the leaf-spine workload:
  //   unarmed      — wire digest only (the sweep's configuration);
  //   armed+serial — tracer + checker under OBJRPC_SHARDS_SERIAL=1: the
  //                  same partition on the serial key-merge driver, with
  //                  observers inline (the pre-§17 world);
  //   armed        — same observers on the concurrent driver, deferring
  //                  into the per-shard journal.
  // `shards_armed_overhead_4` is armed-concurrent time over armed-serial
  // time: the price of the journal's defer/copy/replay machinery
  // relative to inline serial observation.  That is the §17 claim the
  // gate caps at ≤1.15x — the cost of the OBSERVATIONS themselves
  // (checker frame decode, span records) is identical in both legs and
  // is reported separately, ungated, as `shards_armed_cost_4` against
  // the unarmed leg.
  std::printf("\nsimcore: armed-observer overhead (4 shards, best of 2)\n\n");
  double unarmed_eps = 0, armed_eps = 0, armed_serial_eps = 0;
  std::uint64_t unarmed_digest = 0, armed_digest = 0, serial_digest = 0;
  std::uint64_t armed_epochs = 0;
  std::string profile_metrics;
  for (int rep = 0; rep < 2; ++rep) {
    const SweepPoint u = run_sweep_point(4, kSweepPackets, ls_build);
    unarmed_eps = std::max(unarmed_eps, u.events_per_sec);
    unarmed_digest = u.digest;
    ArmedOpts all;
    all.tracer = true;
    all.checker = true;
    all.profile = true;
    const SweepPoint a = run_sweep_point(4, kSweepPackets, ls_build, all);
    armed_eps = std::max(armed_eps, a.events_per_sec);
    armed_digest = a.digest;
    armed_epochs = a.epochs;
    if (!a.metrics_json.empty()) profile_metrics = std::move(a.metrics_json);
    ArmedOpts serial = all;
    serial.profile = false;  // profiler needs the concurrent driver
    serial.serial_driver = true;
    const SweepPoint s = run_sweep_point(4, kSweepPackets, ls_build, serial);
    armed_serial_eps = std::max(armed_serial_eps, s.events_per_sec);
    serial_digest = s.digest;
  }
  const double armed_overhead = armed_serial_eps / armed_eps;
  const double armed_cost = unarmed_eps / armed_eps;
  const bool armed_digest_ok = armed_digest == unarmed_digest &&
                               armed_digest == serial_digest &&
                               armed_digest == ls_serial_digest;
  // epochs > 0 proves the armed leg really ran the BSP worker protocol
  // rather than silently falling back to the serial key-merge driver.
  const bool armed_concurrent = armed_epochs > 0;
  std::printf("%28s%16.3g\n", "unarmed_events_per_sec", unarmed_eps);
  std::printf("%28s%16.3g\n", "armed_events_per_sec", armed_eps);
  std::printf("%28s%16.3g\n", "armed_serial_events_per_sec",
              armed_serial_eps);
  std::printf("%28s%16.3f\n", "armed_overhead", armed_overhead);
  std::printf("%28s%16.3f\n", "armed_cost_vs_unarmed", armed_cost);
  std::printf("%28s%16" PRIu64 "\n", "armed_epochs", armed_epochs);
  std::printf("%28s%16s\n", "armed_digest_ok",
              armed_digest_ok ? "yes" : "NO");
  json.value("shards_unarmed_events_per_sec_4", unarmed_eps);
  json.value("shards_armed_events_per_sec_4", armed_eps);
  json.value("shards_armed_serial_events_per_sec_4", armed_serial_eps);
  json.value("shards_armed_overhead_4", armed_overhead);
  json.value("shards_armed_cost_4", armed_cost);
  json.value("shards_armed_epochs_4", static_cast<double>(armed_epochs));
  json.value("shards_armed_digest_match", armed_digest_ok ? 1.0 : 0.0);
  json.value("shards_armed_concurrent", armed_concurrent ? 1.0 : 0.0);
  json.raw("shard_profile_metrics", std::move(profile_metrics));
  json.emit_metrics_json();

  if (fabric.violations != 0) {
    std::fprintf(stderr, "simcore: %zu invariant violations\n",
                 fabric.violations);
    return 1;
  }
  if (fabric.delivered != kFabricPackets) {
    std::fprintf(stderr,
                 "simcore: routed fabric lost packets (%" PRIu64 "/%" PRIu64
                 ")\n",
                 fabric.delivered, kFabricPackets);
    return 1;
  }
  if (!digests_ok) {
    std::fprintf(stderr,
                 "simcore: shard sweep wire digest diverged from the "
                 "1-shard run\n");
    return 1;
  }
  if (lost_packets) {
    std::fprintf(stderr, "simcore: shard sweep lost packets\n");
    return 1;
  }
  if (!armed_digest_ok) {
    std::fprintf(stderr,
                 "simcore: armed 4-shard digest diverged from the serial "
                 "run\n");
    return 1;
  }
  if (!armed_concurrent) {
    std::fprintf(stderr,
                 "simcore: armed 4-shard leg fell back to the serial "
                 "driver\n");
    return 1;
  }
  return 0;
}
