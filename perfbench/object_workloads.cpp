// Object workloads: `objmix` (1 shard, no observers) and
// `objmix-4shard-armed` (OBJRPC_SHARDS=4, invariant checker armed).
//
// Both drive the library's own LoadGenerator over a Cluster: 16 hosts
// round-robin over a 4-switch full mesh with controller discovery, host
// links slowed to 60 Mb/s so the home links queue.  Three Poisson
// tenants, one per op kind, each homed on its own host with its clients
// behind one other switch (one shard under the switch-group planner):
//
//   tenant   kind    share  home  clients (switch)
//   read     read     70 %    1   4, 8, 12   (sw0)
//   write    write    15 %    2   5, 9, 13   (sw1)
//   invoke   invoke   15 %    3   6, 10, 14  (sw2)
//
// Pinning each tenant's clients to one shard is deliberate: clients of
// one tenant on several shards complete concurrently into the same
// LoadGenerator tenant row, which races (see NOTES.md).
//
// A rep builds the cluster, creates the objects, settles, then offers
// the load window and settles again.  The timed phase repeats reps for
// --seconds; every rep must reproduce rep 0's SLO rows byte for byte.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/cluster.hpp"
#include "load/loadgen.hpp"
#include "net/objnet.hpp"
#include "perfbench.hpp"
#include "sim/shard.hpp"

namespace perfbench {
namespace {

using namespace objrpc;
using namespace objrpc::load;

/// Offered load of the measured window (ops per sim-second, all kinds).
constexpr double kRatePerSec = 20'000.0;
constexpr double kReadShare = 0.70;
constexpr double kWriteShare = 0.15;
constexpr double kInvokeShare = 0.15;
/// Measured windows.  2.5 s at 20K ops/s is ~50K ops: every tenant and
/// the all-ops merge stay under the histogram's exact-p99 limit (~51K
/// samples), so sim_p99_us and sim_p999_us are exact.
constexpr SimDuration kWindow = 2500 * kMillisecond;
/// Traced runs keep every span in memory (~100 B each): shorter window.
constexpr SimDuration kTracedWindow = 500 * kMillisecond;

/// Capacity ladder: offered rates kLadderLo, +kLadderStep, ... up to
/// kLadderHi; a rung passes when its all-ops p99 stays under
/// kP99LimitUs and every op issued in the window has completed by
/// window end + the limit (no backlog).
constexpr double kLadderLo = 16'000.0;
constexpr double kLadderStep = 250.0;
constexpr double kLadderHi = 40'000.0;
constexpr SimDuration kLadderWindow = 1500 * kMillisecond;
constexpr double kP99LimitUs = 1000.0;
/// Independent sim windows (sub-seeds) per run: percentiles and
/// goodput are medians over kSimWindows, capacity over kLadderSeeds.
/// One window's p999 rests on ~50 samples and swings with the seed.
constexpr int kSimWindows = 5;
constexpr int kLadderSeeds = 3;

constexpr const char* kTenantNames[3] = {"read", "write", "invoke"};

ClusterConfig cluster_cfg(std::uint64_t seed, bool armed) {
  ClusterConfig cfg;
  cfg.fabric.scheme = DiscoveryScheme::controller;
  cfg.fabric.num_hosts = 16;
  cfg.fabric.num_switches = 4;
  cfg.fabric.seed = 0x5150 ^ seed;
  cfg.fabric.host_link.bandwidth_bps = 60e6;
  cfg.check_invariants = armed ? 1 : 0;
  return cfg;
}

LoadConfig load_cfg(std::uint64_t seed, double rate, SimDuration window) {
  LoadConfig lc;
  lc.duration = window;
  lc.seed = 0x10AD ^ (seed * 0x9E37'79B9'7F4A'7C15ULL);
  const double shares[3] = {kReadShare, kWriteShare, kInvokeShare};
  const OpMix mixes[3] = {OpMix{1, 0, 0}, OpMix{0, 1, 0}, OpMix{0, 0, 1}};
  for (std::size_t k = 0; k < 3; ++k) {
    TenantSpec t;
    t.tenant = static_cast<std::uint32_t>(k + 1);
    t.name = kTenantNames[k];
    t.arrival.kind = ArrivalConfig::Kind::poisson;
    t.arrival.rate_per_sec = rate * shares[k];
    t.users = 1'000'000;
    t.zipf_s = 0.99;
    t.object_count = 256;
    t.object_bytes = 4096;
    t.mix = mixes[k];
    t.read_bytes = 256;
    t.write_bytes = 256;
    t.home_host = k + 1;
    t.client_hosts = {k + 4, k + 8, k + 12};
    lc.tenants.push_back(t);
  }
  return lc;
}

struct RunMode {
  bool shards4 = false;
  bool armed = false;
  bool traced = false;
  double rate = kRatePerSec;
  SimDuration window = kWindow;
  /// Ladder probes stop the loop at window end + limit to look for a
  /// backlog before draining.
  bool probe_backlog = false;
};

/// Registry snapshot plus the service counters the registry lacks,
/// taken at both edges of the load window.
struct Counts {
  obs::MetricsSnapshot reg;
  std::uint64_t nacks = 0, timeouts = 0, events = 0;
};

Counts read_counts(Cluster& c) {
  Counts k;
  k.reg = c.metrics().snapshot();
  for (std::size_t i = 0; i < c.host_count(); ++i) {
    k.nacks += c.service(i).counters().nacks_received;
    k.timeouts += c.service(i).counters().timeouts;
  }
  k.events = c.loop().events_executed();
  return k;
}

struct Rep {
  double setup_s = 0, run_s = 0, cluster_build_s = 0, loadgen_s = 0;
  std::vector<TenantSlo> rows;
  /// Per-tenant response histograms plus their all-ops merge.
  obs::Histogram resp[3];
  obs::Histogram all;
  std::uint64_t issued = 0, completed = 0, errors = 0;
  double goodput_Bps = 0;  // payload bytes per sim-second, all tenants
  std::uint64_t backlog = 0;
  std::uint64_t epochs = 0, cross = 0, overflow = 0;
  std::uint64_t violations = 0, check_events = 0;
  std::uint64_t rules_installed = 0;
  Counts before, after;
  /// Byte-exact identity of everything the sim plane produced.
  std::string fingerprint;
  /// Traced runs only: span times, shard profile, per-frame host costs
  /// (measured over `sampled_frames` tapped frames).
  Layers traced;
  std::size_t sampled_frames = 0;
};

std::string fingerprint_of(const Rep& r, std::uint64_t stream_digest) {
  std::string fp;
  char buf[512];
  for (const TenantSlo& s : r.rows) {
    std::snprintf(buf, sizeof buf,
                  "%s %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %.17g %.17g %.17g %.17g %.17g %.17g %.17g|",
                  s.name.c_str(), s.issued, s.completed, s.errors,
                  s.goodput_bytes_per_sec, s.resp_p50_us, s.resp_p99_us,
                  s.resp_p999_us, s.svc_p50_us, s.svc_p99_us, s.svc_p999_us);
    fp += buf;
  }
  std::snprintf(buf, sizeof buf, "digest=%016" PRIx64 " bytes=%" PRIu64,
                stream_digest, counter_sum(r.after.reg, "net/bytes_delivered"));
  fp += buf;
  return fp;
}

constexpr std::size_t kSampleFrames = 4096;

Rep run_rep(std::uint64_t seed, const RunMode& mode) {
  // Cluster::build reads these at its last step (the switch-group
  // planner and the shard profiler); main() starts with both unset.
  if (mode.shards4) setenv("OBJRPC_SHARDS", "4", 1);
  if (mode.shards4 && mode.traced) setenv("OBJRPC_SHARD_PROFILE", "1", 1);

  Rep r;
  Stopwatch setup;
  Stopwatch build;
  auto cluster = Cluster::build(cluster_cfg(seed, mode.armed));
  r.cluster_build_s = build.seconds();
  unsetenv("OBJRPC_SHARDS");
  unsetenv("OBJRPC_SHARD_PROFILE");
  if (cluster->checker() != nullptr) {
    cluster->checker()->set_abort_on_violation(false);
  }
  Network& net = cluster->fabric().network();
  // Frames of the load window only (armed once the load starts).  Taps
  // run on the coordinator in sharded runs, so the vector has one
  // writer.
  bool capture = false;
  std::vector<Bytes> sample;
  if (mode.traced) {
    cluster->tracer().arm();
    net.add_tap([&sample, &capture](NodeId, NodeId, const Packet& pkt) {
      if (capture && sample.size() < kSampleFrames) sample.push_back(pkt.data);
    });
  }
  Stopwatch gen_clock;
  LoadGenerator gen(*cluster, load_cfg(seed, mode.rate, mode.window));
  r.loadgen_s = gen_clock.seconds();
  cluster->settle();  // object adverts, controller rules, discovery
  r.setup_s = setup.seconds();

  r.before = read_counts(*cluster);
  const SimTime load_start = cluster->loop().now();
  capture = true;
  Stopwatch run;
  gen.start();
  if (mode.probe_backlog) {
    cluster->loop().run_until(load_start + mode.window +
                              static_cast<SimDuration>(kP99LimitUs * 1000));
    r.backlog = gen.in_flight();
  }
  cluster->settle();
  r.run_s = run.seconds();
  capture = false;
  r.after = read_counts(*cluster);

  r.rows = gen.report();
  for (std::size_t k = 0; k < 3; ++k) {
    r.resp[k] = cluster->metrics().histogram(std::string("load/") +
                                             kTenantNames[k] + "/resp_us");
    r.all.merge(r.resp[k]);
  }
  for (const TenantSlo& s : r.rows) {
    r.issued += s.issued;
    r.completed += s.completed;
    r.errors += s.errors;
    r.goodput_Bps += s.goodput_bytes_per_sec;
  }
  if (ShardRunner* runner = net.runner()) {
    r.epochs = runner->epochs();
    r.cross = runner->cross_frames();
    r.overflow = runner->overflow_count();
  }
  if (check::InvariantChecker* ck = cluster->checker()) {
    r.violations = ck->violations().size();
    r.check_events = ck->events_observed();
  }
  if (ControllerNode* ctl = cluster->fabric().controller()) {
    r.rules_installed = ctl->counters().rules_installed;
  }
  r.fingerprint = fingerprint_of(r, gen.stream_digest());

  if (mode.traced) {
    const auto ops = static_cast<double>(r.completed ? r.completed : 1);
    read_span_layers(cluster->tracer(), load_start, ops, r.traced);
    read_shard_profile(cluster->metrics().snapshot(), r.traced);
    // Host cost of two per-frame layer functions on this workload's own
    // traffic: the full frame decode (what the checker does per frame)
    // and the switch's exact-match lookup on the frame's routing key.
    r.traced.frame_decode_ns = time_per_item_ns(sample, [](const Bytes& b) {
      auto f = Frame::decode(b);
      return f ? static_cast<std::uint64_t>(f->payload.size()) + 1 : 0;
    });
    std::vector<U128> keys;
    for (const Bytes& b : sample) {
      Packet p;
      p.data = b;
      if (auto v = Frame::peek(p)) {
        keys.push_back(v->dst_host != kUnspecifiedHost
                           ? host_route_key(v->dst_host)
                           : object_route_key(v->object));
      }
    }
    r.traced.table_lookup_ns =
        lookup_ns(cluster->fabric().switch_at(0).table(), keys);
    r.sampled_frames = sample.size();
  }
  return r;
}

/// Every op completed, no violations, and the sim plane equals `ref`
/// (a run of the same seed and window) byte for byte.
void check_rep(Outcome& out, const Rep& r, const Rep& ref, std::size_t i) {
  if (r.completed != r.issued) {
    out.fail("rep " + std::to_string(i) + ": " +
             std::to_string(r.issued - r.completed) + " ops never completed");
  }
  if (r.violations != 0) {
    out.fail("rep " + std::to_string(i) + ": " +
             std::to_string(r.violations) + " invariant violations");
  }
  if (r.fingerprint != ref.fingerprint) {
    out.fail("rep " + std::to_string(i) +
             " SLO rows differ from the reference run: " + r.fingerprint +
             " vs " + ref.fingerprint);
  }
}

std::uint64_t failed_ops(const Rep& r) {
  return r.errors + (r.issued - r.completed);
}

/// Highest ladder rung whose p99 stays under the limit with no backlog
/// (0 when the lowest rung already fails).  Runs at 1 shard without
/// observers: the sim plane is identical at every shard count (the
/// selftest checks it), so the result holds for both object workloads.
double capacity_ladder(std::uint64_t seed, std::vector<std::string>* detail) {
  return ladder_capacity(kLadderLo, kLadderStep, kLadderHi, [&](double rate) {
    RunMode m;
    m.rate = rate;
    m.window = kLadderWindow;
    m.probe_backlog = true;
    const Rep r = run_rep(seed, m);
    const double p99 = r.all.quantile(0.99);
    const bool pass = p99 < kP99LimitUs && r.backlog == 0 &&
                      r.completed == r.issued && r.errors == 0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "ladder %.0f ops/s: p99 %.0f us over %" PRIu64
                  " ops, backlog %" PRIu64 " -> %s",
                  rate, p99, r.all.count(), r.backlog, pass ? "pass" : "fail");
    detail->push_back(buf);
    return pass;
  });
}

std::string pct_note(const char* what, const obs::Histogram& h) {
  // Exact when the rank falls in the retained tail (Histogram::kTailSize
  // largest samples); interpolated inside a power-of-two bucket below.
  auto exact = [&h](double q) {
    const auto n = h.count();
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5);
    return n - rank < obs::Histogram::kTailSize;
  };
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s: n=%" PRIu64 " p50=%.0f (%s) p99=%.0f (%s) p999=%.0f (%s)",
                what, h.count(), h.quantile(0.5),
                exact(0.5) ? "exact" : "interpolated", h.quantile(0.99),
                exact(0.99) ? "exact" : "interpolated", h.quantile(0.999),
                exact(0.999) ? "exact" : "interpolated");
  return buf;
}

/// Seed of the k-th independent sim window of a run (k = 0 is --seed).
std::uint64_t sub_seed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 1'000'003ULL;
}

Outcome end_to_end(const Args& args, const RunMode& mode) {
  Outcome out;
  // Sim plane: kSimWindows full windows at 1 shard, each with its own
  // sub-seed; every percentile is exact within its window and the
  // reported value is the median over windows.  The sim plane does not
  // depend on the shard count; every run checks that below, where the
  // timed reps must reproduce a 1-shard run of their own window.
  RunMode serial = mode;
  serial.shards4 = false;
  RunMode sim_mode = serial;
  sim_mode.window = kWindow;
  std::vector<Rep> sims;
  for (int k = 0; k < kSimWindows; ++k) {
    sims.push_back(run_rep(sub_seed(args.seed, k), sim_mode));
    check_rep(out, sims.back(), sims.back(), 0);
    out.attempted += sims.back().issued;
    out.failed += failed_ops(sims.back());
    out.notes.push_back(pct_note(
        ("window " + std::to_string(k) + " all ops resp_us").c_str(),
        sims.back().all));
  }
  for (std::size_t k = 0; k < 3; ++k) {
    out.notes.push_back(pct_note(
        ("window 0 " + std::string(kTenantNames[k])).c_str(),
        sims.front().resp[k]));
  }
  const Rep ref =
      serial.window == kWindow ? sims.front() : run_rep(args.seed, serial);
  check_rep(out, ref, ref, 0);

  std::vector<double> setup, ops_per_s;
  std::size_t reps = 0;
  // A 1-shard rep runs on one thread, and on a shared host the vCPUs
  // differ in speed (up to ~25 % here): left where the scheduler first
  // put it, a run measures its vCPU.  Rotating reps over every allowed
  // CPU makes each run sample all of them.  Sharded reps are not pinned:
  // their worker threads inherit the creating thread's mask.
  std::optional<CpuRotation> rotation;
  if (!mode.shards4) rotation.emplace();
  Stopwatch wall;
  do {
    if (rotation) rotation->pin_next();
    const Rep r = run_rep(args.seed, mode);
    check_rep(out, r, ref, ++reps);
    setup.push_back(r.setup_s);
    ops_per_s.push_back(static_cast<double>(r.completed) / r.run_s);
    out.attempted += r.issued;
    out.failed += failed_ops(r);
  } while (wall.seconds() < args.seconds);
  rotation.reset();

  out.notes.push_back("timed reps=" + std::to_string(reps) +
                      ", each matching a 1-shard run of its window");
  out.notes.push_back(series_note("setup_s per rep", setup));
  out.notes.push_back(series_note("host_ops_per_s per rep", ops_per_s));
  std::vector<double> capacity;
  for (int k = 0; k < kLadderSeeds; ++k) {
    capacity.push_back(capacity_ladder(sub_seed(args.seed, k), &out.notes));
  }

  auto sim_median = [&sims](auto metric) {
    std::vector<double> v;
    for (const Rep& r : sims) v.push_back(metric(r));
    return median(std::move(v));
  };
  std::uint64_t issued = 0, failed = 0;
  for (const Rep& r : sims) {
    issued += r.issued;
    failed += failed_ops(r);
  }
  out.add("setup_s", time_over_reps(setup), "s");
  out.add("host_ops_per_s", rate_over_reps(ops_per_s), "ops/s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("sim_p50_us", sim_median([](const Rep& r) {
            return r.all.quantile(0.50);
          }), "us");
  out.add("sim_p99_us", sim_median([](const Rep& r) {
            return r.all.quantile(0.99);
          }), "us");
  out.add("sim_p999_us", sim_median([](const Rep& r) {
            return r.all.quantile(0.999);
          }), "us");
  out.add("read_p99_us", sim_median([](const Rep& r) {
            return r.resp[0].quantile(0.99);
          }), "us");
  out.add("write_p99_us", sim_median([](const Rep& r) {
            return r.resp[1].quantile(0.99);
          }), "us");
  out.add("invoke_p99_us", sim_median([](const Rep& r) {
            return r.resp[2].quantile(0.99);
          }), "us");
  out.add("goodput_MBps",
          sim_median([](const Rep& r) { return r.goodput_Bps / 1e6; }),
          "MB/s");
  out.add("ops_ok_frac",
          1.0 - static_cast<double>(failed) /
                    static_cast<double>(issued ? issued : 1),
          "fraction");
  out.add("sim_capacity_ops_per_s", median(capacity), "ops/s");
  return out;
}

Outcome per_layer(const Args& args, RunMode mode) {
  Outcome out;
  mode.window = kTracedWindow;
  // Untraced companions of the traced run: host cost per op and per
  // event without observation, repeated for half of --seconds.
  std::vector<Rep> plain;
  std::vector<double> fabric_build, ns_per_op, ns_per_event;
  Stopwatch wall;
  do {
    Stopwatch fb;
    { auto f = Fabric::build(cluster_cfg(args.seed, mode.armed).fabric); }
    fabric_build.push_back(fb.seconds());
    plain.push_back(run_rep(args.seed, mode));
    const Rep& r = plain.back();
    ns_per_op.push_back(r.run_s * 1e9 / static_cast<double>(r.completed));
    ns_per_event.push_back(
        r.run_s * 1e9 / static_cast<double>(r.after.events - r.before.events));
  } while (wall.seconds() < args.seconds / 2);

  RunMode traced_mode = mode;
  traced_mode.traced = true;
  const Rep t = run_rep(args.seed, traced_mode);
  const Rep& p = plain.front();
  for (std::size_t i = 0; i < plain.size(); ++i) {
    check_rep(out, plain[i], p, i);
    out.attempted += plain[i].issued;
    out.failed += failed_ops(plain[i]);
  }
  check_rep(out, t, p, plain.size());  // observation must be passive
  out.attempted += t.issued;
  out.failed += failed_ops(t);

  std::vector<double> build_s, gen_s;
  for (const Rep& r : plain) {
    build_s.push_back(r.cluster_build_s);
    gen_s.push_back(r.loadgen_s);
  }
  const auto ops = static_cast<double>(p.completed ? p.completed : 1);
  const Counts& a = p.after;
  const Counts& b = p.before;
  auto delta = [&](std::string_view part) {
    return static_cast<double>(counter_sum(a.reg, part) -
                               counter_sum(b.reg, part));
  };
  Layers l = t.traced;
  l.ops_issued = static_cast<double>(p.issued);
  l.ops_completed = static_cast<double>(p.completed);
  l.load_setup_s = median(gen_s);
  l.cluster_build_s = median(build_s);
  l.frames_per_op = delta("/host/frames_out") / ops;
  l.bytes_per_op = delta("net/bytes_delivered") / ops;
  l.punts_per_op = delta("/controller/punts_") / ops;
  l.rules_installed = static_cast<double>(p.rules_installed);
  l.nacks = static_cast<double>(a.nacks - b.nacks);
  l.timeouts = static_cast<double>(a.timeouts - b.timeouts);
  l.retransmissions = delta("/reliable/retransmissions");
  l.endpoint_us = t.all.mean() - (l.queue_us + l.wire_us + l.pipeline_us);
  l.events = static_cast<double>(a.events - b.events);
  l.events_per_op = l.events / ops;
  l.ns_per_event = median(ns_per_event);
  read_sim_counters(b.reg, a.reg, l);
  l.fabric_build_s = median(fabric_build);
  l.epochs = static_cast<double>(p.epochs);
  l.epochs_per_op = l.epochs / ops;
  l.cross_frames = static_cast<double>(p.cross);
  l.ring_overflow = static_cast<double>(p.overflow);
  l.check_events = static_cast<double>(p.check_events);
  l.check_violations = static_cast<double>(p.violations + t.violations);
  const double traced_ns_per_op =
      t.run_s * 1e9 / static_cast<double>(t.completed ? t.completed : 1);
  l.trace_overhead = traced_ns_per_op / median(ns_per_op);
  out.notes.push_back("untraced companion reps=" +
                      std::to_string(plain.size()) + ", traced spans over " +
                      std::to_string(t.completed) + " ops, " +
                      std::to_string(t.sampled_frames) + " tapped frames");
  add_layers(out, l);
  return out;
}

}  // namespace

Outcome run_object_workload(const Args& args, bool sharded_armed) {
  RunMode mode;
  mode.shards4 = sharded_armed;
  mode.armed = sharded_armed;
  // The 4-shard timed reps use the traced window: at ~10K ops/s host a
  // full window takes ~5 s, too few reps for a steady median.
  mode.window = sharded_armed ? kTracedWindow : kWindow;
  return args.trace ? per_layer(args, mode) : end_to_end(args, mode);
}

int selftest_object_shard_rows(std::uint64_t seed) {
  // objmix-4shard-armed's per-tenant rows must equal a 1-shard run of
  // the same config and seed, byte for byte.
  RunMode serial;
  serial.armed = true;
  serial.window = kTracedWindow;
  RunMode sharded = serial;
  sharded.shards4 = true;
  const Rep a = run_rep(seed, serial);
  const Rep b = run_rep(seed, sharded);
  const bool rows_equal = a.fingerprint == b.fingerprint;
  const bool ran_sharded = b.epochs > 0;
  const bool clean = a.violations == 0 && b.violations == 0 &&
                     a.completed == a.issued && b.completed == b.issued;
  std::printf("[%s] objmix-4shard-armed rows == 1-shard rows (seed %" PRIu64
              ")\n      1 shard : %s\n      4 shards: %s\n",
              rows_equal ? "ok" : "FAIL", seed, a.fingerprint.c_str(),
              b.fingerprint.c_str());
  std::printf("[%s] 4-shard run executed concurrently (%" PRIu64
              " epochs)\n",
              ran_sharded ? "ok" : "FAIL", b.epochs);
  std::printf("[%s] every op completed, no invariant violations\n",
              clean ? "ok" : "FAIL");
  return (rows_equal ? 0 : 1) + (ran_sharded ? 0 : 1) + (clean ? 0 : 1);
}

}  // namespace perfbench
