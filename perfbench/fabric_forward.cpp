// fabric-forward: raw Network forwarding on a 1024-host k=16 fat-tree
// (320 switches, exact-match destination routes) at 4 shards
// (ShardPlan::fat_tree), with no Cluster: nothing in load/core/net/check
// runs, so this workload isolates the simulator's per-frame cost.
//
// Bench-owned hosts send 64 B frames open-loop to uniform random
// destinations.  Each host chains its own next send from its own event
// (Poisson gaps), so no packet is materialised ahead of its send.  A
// frame carries its destination and the time its send was due; the
// receiver records one-way latency from that due time.
//
// Routing follows the routed fat-tree of bench/simcore.cpp (upward port
// chosen by destination index, so each pair takes one fixed path),
// rebuilt here on sim/topology's generator.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "perfbench.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "sim/switch_node.hpp"
#include "sim/topology.hpp"

namespace perfbench {
namespace {

using namespace objrpc;

constexpr std::uint32_t kK = 16;  // 1024 hosts, 320 switches
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kPayloadBytes = 64;
/// Host links are slowed (as objmix does) so a host's own link is the
/// resource the ladder saturates; fabric links keep the 10 Gb/s default.
constexpr double kHostLinkBps = 100e6;
/// Offered load of the measured window: frames per host per sim-second.
constexpr double kRatePerHost = 70'000.0;
constexpr SimDuration kWindow = 3 * kMillisecond;
constexpr SimDuration kTracedWindow = 300 * kMicrosecond;
/// Capacity ladder over the per-host rate.
constexpr double kLadderLo = 40'000.0;
constexpr double kLadderStep = 2'500.0;
constexpr double kLadderHi = 160'000.0;
constexpr SimDuration kLadderWindow = 2 * kMillisecond;
constexpr double kP99LimitUs = 200.0;

void put_u64(Bytes& b, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_u64(const Bytes& b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= std::uint64_t{b[at + i]} << (8 * i);
  }
  return v;
}

/// Payload layout: [0,8) destination host index, [8,16) due time.
std::optional<ParsedKey> dst_key(const Packet& pkt) {
  if (pkt.data.size() < 8) return std::nullopt;
  return ParsedKey(U128{0, get_u64(pkt.data, 0)}, false);
}

class BenchHost : public NetworkNode {
 public:
  BenchHost(Network& net, NodeId id, std::string name)
      : NetworkNode(net, id, std::move(name)) {}

  void init(std::uint64_t index, std::uint64_t hosts, Rng rng) {
    index_ = index;
    hosts_ = hosts;
    rng_ = rng;
  }

  /// Open-loop stream for [start, end): the first send is injected on
  /// this host's own source; every later one chains from the previous.
  void begin(double rate_per_sec, SimTime start, SimTime end) {
    mean_gap_ns_ = 1e9 / rate_per_sec;
    end_ = end;
    next_due_ = start + gap();
    if (next_due_ < end_) {
      net().schedule_on(id(), next_due_, [this] { send_next(); });
    }
  }

  void on_packet(PortId, Packet pkt) override {
    const auto due = static_cast<SimTime>(get_u64(pkt.data, 8));
    latencies.push_back(loop().now() - due);
    payload_bytes += pkt.data.size();
    net().payload_pool().release(std::move(pkt.data));
  }

  std::uint64_t sent = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<SimDuration> latencies;

 private:
  SimDuration gap() {
    return std::max<SimDuration>(
        1, static_cast<SimDuration>(rng_.next_exponential(mean_gap_ns_)));
  }

  void send_next() {
    std::uint64_t dst = rng_.next_below(hosts_ - 1);
    if (dst >= index_) ++dst;
    Packet pkt;
    pkt.data = net().payload_pool().acquire(kPayloadBytes);
    std::fill(pkt.data.begin(), pkt.data.end(), std::uint8_t{0x5A});
    put_u64(pkt.data, 0, dst);
    put_u64(pkt.data, 8, static_cast<std::uint64_t>(next_due_));
    send(0, std::move(pkt));
    ++sent;
    next_due_ += gap();
    if (next_due_ < end_) {
      loop().schedule_at(next_due_, [this] { send_next(); });
    }
  }

  std::uint64_t index_ = 0;
  std::uint64_t hosts_ = 1;
  Rng rng_{0};
  double mean_gap_ns_ = 1.0;
  SimTime next_due_ = 0;
  SimTime end_ = 0;
};

struct Built {
  std::unique_ptr<Network> net;
  FatTreeTopology topo;
  std::vector<BenchHost*> hosts;
  double build_s = 0;
};

Built build(std::uint64_t seed, bool profile, std::uint32_t shards = kShards) {
  Stopwatch clock;
  Built b;
  b.net = std::make_unique<Network>(seed);
  Network& net = *b.net;
  if (profile) net.arm_shard_profiler();  // before enable_sharding
  FatTreeParams params;
  params.k = kK;
  params.host_link.bandwidth_bps = kHostLinkBps;
  SwitchConfig scfg;
  scfg.key_bits = 64;
  b.topo = build_fat_tree(
      net, params,
      [&](const std::string& n) {
        return net.add_node<SwitchNode>(n, scfg).id();
      },
      [&](const std::string& n) { return net.add_node<BenchHost>(n).id(); });
  const std::uint64_t m = kK / 2;
  const std::uint64_t hosts = b.topo.host_count();
  auto pod_of = [m](std::uint64_t h) { return h / (m * m); };
  auto edge_of = [m](std::uint64_t h) { return (h / m) % m; };
  auto route = [&](NodeId id, auto out_port) {
    auto& sw = static_cast<SwitchNode&>(net.node(id));
    sw.set_key_extractor(dst_key);
    for (std::uint64_t h = 0; h < hosts; ++h) {
      (void)sw.table().insert(U128{0, h}, Action::forward_to(out_port(h)));
    }
  };
  for (std::uint64_t p = 0; p < kK; ++p) {
    for (std::uint64_t e = 0; e < m; ++e) {
      route(b.topo.edges[p * m + e], [&](std::uint64_t h) {
        return static_cast<PortId>(
            pod_of(h) == p && edge_of(h) == e ? h % m : m + h % m);
      });
    }
    for (std::uint64_t a = 0; a < m; ++a) {
      route(b.topo.aggs[p * m + a], [&](std::uint64_t h) {
        return static_cast<PortId>(pod_of(h) == p ? edge_of(h)
                                                  : m + (h / m) % m);
      });
    }
  }
  for (NodeId core : b.topo.cores) {
    route(core, [&](std::uint64_t h) { return static_cast<PortId>(pod_of(h)); });
  }
  const Rng root(seed ^ 0xFAB'F0D);
  for (std::uint64_t i = 0; i < hosts; ++i) {
    auto* h = static_cast<BenchHost*>(&net.node(b.topo.hosts[i]));
    h->init(i, hosts, root.fork(i));
    b.hosts.push_back(h);
  }
  if (shards > 1) net.enable_sharding(ShardPlan::fat_tree(net, b.topo, shards));
  b.build_s = clock.seconds();
  return b;
}

/// One open-loop window's outcome.
struct Window {
  std::uint64_t sent = 0, delivered = 0, payload_bytes = 0;
  std::uint64_t undelivered_at_probe = 0;
  std::uint64_t events = 0;
  double run_s = 0;
  std::vector<SimDuration> lat;  // sorted, ns
  SimTime start = 0;

  double pct_us(double q) const {
    if (lat.empty()) return 0.0;
    // Nearest rank over the full sample: exact at any count.
    const auto n = lat.size();
    auto rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.5);
    rank = std::clamp<std::size_t>(rank, 1, n);
    return static_cast<double>(lat[rank - 1]) / 1e3;
  }
};

Window offer(Built& b, double rate, SimDuration window,
             SimDuration probe_after = -1) {
  Network& net = *b.net;
  Window w;
  w.start = net.loop().now();
  std::uint64_t sent0 = 0, bytes0 = 0;
  for (BenchHost* h : b.hosts) {
    sent0 += h->sent;
    bytes0 += h->payload_bytes;
    h->latencies.clear();
    h->begin(rate, w.start, w.start + window);
  }
  const std::uint64_t events0 = net.loop().events_executed();
  Stopwatch clock;
  if (probe_after >= 0) {
    net.loop().run_until(w.start + window + probe_after);
    std::uint64_t sent = 0, got = 0;
    for (BenchHost* h : b.hosts) {
      sent += h->sent;
      got += h->latencies.size();
    }
    w.undelivered_at_probe = sent - sent0 - got;
  }
  net.loop().run();
  w.run_s = clock.seconds();
  w.events = net.loop().events_executed() - events0;
  for (BenchHost* h : b.hosts) {
    w.sent += h->sent;
    w.payload_bytes += h->payload_bytes;
    w.lat.insert(w.lat.end(), h->latencies.begin(), h->latencies.end());
  }
  w.sent -= sent0;
  w.payload_bytes -= bytes0;
  w.delivered = w.lat.size();
  std::sort(w.lat.begin(), w.lat.end());
  return w;
}

std::string fingerprint_of(const Window& w) {
  std::uint64_t sum = 0;
  for (SimDuration d : w.lat) sum += static_cast<std::uint64_t>(d);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "sent=%" PRIu64 " delivered=%" PRIu64 " bytes=%" PRIu64
                " lat_sum=%" PRIu64 " p50=%.3f p99=%.3f p999=%.3f",
                w.sent, w.delivered, w.payload_bytes, sum, w.pct_us(0.5),
                w.pct_us(0.99), w.pct_us(0.999));
  return buf;
}

double capacity_ladder(std::uint64_t seed, std::vector<std::string>* detail) {
  // One build serves every rung: each window starts on an idle fabric.
  Built b = build(seed, false);
  const auto limit = static_cast<SimDuration>(kP99LimitUs * 1000);
  const double per_host =
      ladder_capacity(kLadderLo, kLadderStep, kLadderHi, [&](double rate) {
        const Window w = offer(b, rate, kLadderWindow, limit);
        const double p99 = w.pct_us(0.99);
        const bool pass = p99 < kP99LimitUs && w.undelivered_at_probe == 0 &&
                          w.delivered == w.sent;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "ladder %.0f frames/s/host: p99 %.1f us over %" PRIu64
                      " frames, backlog %" PRIu64 " -> %s",
                      rate, p99, w.delivered, w.undelivered_at_probe,
                      pass ? "pass" : "fail");
        detail->push_back(buf);
        return pass;
      });
  return per_host * static_cast<double>(b.hosts.size());
}

void check_window(Outcome& out, const Window& w, const std::string& fp,
                  const std::string& first_fp, std::size_t i) {
  if (w.delivered != w.sent) {
    out.fail("rep " + std::to_string(i) + ": " +
             std::to_string(w.sent - w.delivered) + " frames undelivered");
  }
  if (fp != first_fp) {
    out.fail("rep " + std::to_string(i) + " differs from rep 0: " + fp +
             " vs " + first_fp);
  }
}

Outcome end_to_end(const Args& args) {
  Outcome out;
  std::vector<double> setup, per_s;
  std::vector<std::string> fps;
  Window first;
  Stopwatch wall;
  do {
    Built b = build(args.seed, false);
    Window w = offer(b, kRatePerHost, kWindow);
    setup.push_back(b.build_s);
    per_s.push_back(static_cast<double>(w.delivered) / w.run_s);
    fps.push_back(fingerprint_of(w));
    check_window(out, w, fps.back(), fps.front(), fps.size() - 1);
    out.attempted += w.sent;
    out.failed += w.sent - w.delivered;
    if (fps.size() == 1) first = std::move(w);
  } while (wall.seconds() < args.seconds);

  char buf[200];
  std::snprintf(buf, sizeof buf,
                "reps=%zu; frame latency n=%zu (exact percentiles); "
                "one op kind, so read/write/invoke p99 = sim_p99_us",
                fps.size(), first.lat.size());
  out.notes.push_back(buf);
  out.notes.push_back(series_note("setup_s per rep", setup));
  out.notes.push_back(series_note("host_ops_per_s per rep", per_s));
  const double capacity = capacity_ladder(args.seed, &out.notes);

  const double window_s = static_cast<double>(kWindow) / 1e9;
  const double p99 = first.pct_us(0.99);
  out.add("setup_s", time_over_reps(setup), "s");
  out.add("host_ops_per_s", rate_over_reps(per_s), "ops/s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("sim_p50_us", first.pct_us(0.50), "us");
  out.add("sim_p99_us", p99, "us");
  out.add("sim_p999_us", first.pct_us(0.999), "us");
  out.add("read_p99_us", p99, "us");
  out.add("write_p99_us", p99, "us");
  out.add("invoke_p99_us", p99, "us");
  out.add("goodput_MBps",
          static_cast<double>(first.payload_bytes) / window_s / 1e6, "MB/s");
  out.add("ops_ok_frac",
          static_cast<double>(first.delivered) /
              static_cast<double>(first.sent ? first.sent : 1),
          "fraction");
  out.add("sim_capacity_ops_per_s", capacity, "ops/s");
  return out;
}

Outcome per_layer(const Args& args) {
  Outcome out;
  std::vector<double> build_s, ns_per_op, ns_per_event;
  std::string first_fp;
  Window plain;
  std::uint64_t epochs = 0, cross = 0, overflow = 0;
  obs::MetricsSnapshot before, after;
  Stopwatch wall;
  do {
    Built b = build(args.seed, false);
    build_s.push_back(b.build_s);
    before = b.net->metrics().snapshot();
    Window w = offer(b, kRatePerHost, kTracedWindow);
    after = b.net->metrics().snapshot();
    ns_per_op.push_back(w.run_s * 1e9 / static_cast<double>(w.delivered));
    ns_per_event.push_back(w.run_s * 1e9 / static_cast<double>(w.events));
    const std::string fp = fingerprint_of(w);
    if (first_fp.empty()) first_fp = fp;
    check_window(out, w, fp, first_fp, build_s.size() - 1);
    out.attempted += w.sent;
    out.failed += w.sent - w.delivered;
    if (ShardRunner* r = b.net->runner()) {
      epochs = r->epochs();
      cross = r->cross_frames();
      overflow = r->overflow_count();
    }
    plain = std::move(w);
  } while (wall.seconds() < args.seconds / 2);

  // Traced run: tracer + shard profiler + a tap sampling delivered
  // frames (taps replay on the coordinator, so one writer).
  Built b = build(args.seed, true);
  Network& net = *b.net;
  net.tracer().arm();
  std::vector<U128> keys;
  net.add_tap([&keys](NodeId, NodeId, const Packet& pkt) {
    if (keys.size() < 4096) {
      if (auto k = dst_key(pkt)) keys.push_back(k->key);
    }
  });
  const Window t = offer(b, kRatePerHost, kTracedWindow);
  check_window(out, t, fingerprint_of(t), first_fp, build_s.size());
  out.attempted += t.sent;
  out.failed += t.sent - t.delivered;
  const auto ops = static_cast<double>(plain.delivered ? plain.delivered : 1);
  Layers l;
  l.ops_issued = static_cast<double>(plain.sent);
  l.ops_completed = static_cast<double>(plain.delivered);
  l.events = static_cast<double>(plain.events);
  l.events_per_op = l.events / ops;
  l.ns_per_event = median(ns_per_event);
  read_sim_counters(before, after, l);
  read_span_layers(net.tracer(), t.start,
                   static_cast<double>(t.delivered ? t.delivered : 1), l);
  read_shard_profile(net.metrics().snapshot(), l);
  l.fabric_build_s = median(build_s);
  l.epochs = static_cast<double>(epochs);
  l.epochs_per_op = l.epochs / ops;
  l.cross_frames = static_cast<double>(cross);
  l.ring_overflow = static_cast<double>(overflow);
  // After every registry read: lookup() bumps the table counters.
  l.table_lookup_ns = lookup_ns(
      static_cast<SwitchNode&>(net.node(b.topo.edges[0])).table(), keys);
  l.trace_overhead =
      (t.run_s * 1e9 / static_cast<double>(t.delivered ? t.delivered : 1)) /
      median(ns_per_op);
  out.notes.push_back("untraced companion reps=" +
                      std::to_string(build_s.size()) + ", traced frames " +
                      std::to_string(t.delivered) + ", " +
                      std::to_string(keys.size()) + " tapped keys");
  add_layers(out, l);
  return out;
}

}  // namespace

Outcome run_fabric_forward(const Args& args) {
  return args.trace ? per_layer(args) : end_to_end(args);
}

int selftest_fabric_shard_invariance(std::uint64_t seed) {
  // The same frames, routes and seed must give byte-identical latencies
  // whether the fabric runs on one shard or four.
  Built sharded = build(seed, false);
  const Window a = offer(sharded, kRatePerHost, kTracedWindow);
  Built serial = build(seed, false, 1);
  const Window b = offer(serial, kRatePerHost, kTracedWindow);
  const bool same = a.lat == b.lat && a.sent == b.sent;
  const bool all = a.delivered == a.sent;
  std::printf("[%s] fabric-forward latencies identical at %u and %u shard(s)"
              " (%s)\n",
              same ? "ok" : "FAIL", sharded.net->shard_count(),
              serial.net->shard_count(), fingerprint_of(a).c_str());
  std::printf("[%s] fabric-forward delivered every frame\n",
              all ? "ok" : "FAIL");
  return (same ? 0 : 1) + (all ? 0 : 1);
}

}  // namespace perfbench
