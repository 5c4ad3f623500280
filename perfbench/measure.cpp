// Measurement helpers shared by the workloads: the per-layer metric
// table, registry/tracer/profiler readers, and host-resource probes.
#include <sched.h>
#include <sys/resource.h>

#include "perfbench.hpp"

namespace perfbench {

using namespace objrpc;

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus_) CPU_SET(c, &mask);
  (void)sched_setaffinity(0, sizeof mask, &mask);
}

void CpuRotation::pin_next() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_++ % cpus_.size()], &mask);
  (void)sched_setaffinity(0, sizeof mask, &mask);
}

void add_layers(Outcome& out, const Layers& l) {
  out.add("load.ops_issued", l.ops_issued, "count");
  out.add("load.ops_completed", l.ops_completed, "count");
  out.add("load.setup_s", l.load_setup_s, "s");
  out.add("core.cluster_build_s", l.cluster_build_s, "s");
  out.add("net.frames_per_op", l.frames_per_op, "frames/op");
  out.add("net.bytes_per_op", l.bytes_per_op, "B/op");
  out.add("net.controller.punts_per_op", l.punts_per_op, "punts/op");
  out.add("net.controller.rules_installed", l.rules_installed, "count");
  out.add("net.service.nacks", l.nacks, "count");
  out.add("net.service.timeouts", l.timeouts, "count");
  out.add("net.reliable.retransmissions", l.retransmissions, "count");
  out.add("net.frame_decode_ns", l.frame_decode_ns, "ns");
  out.add("net.endpoint_us", l.endpoint_us, "us");
  out.add("sim.events", l.events, "count");
  out.add("sim.events_per_op", l.events_per_op, "events/op");
  out.add("sim.ns_per_event", l.ns_per_event, "ns");
  out.add("sim.pool_reuse_ratio", l.pool_reuse_ratio, "fraction");
  out.add("sim.table_lookup_ns", l.table_lookup_ns, "ns");
  out.add("sim.switch.table_hit_ratio", l.table_hit_ratio, "fraction");
  out.add("sim.switch.punted", l.switch_punted, "count");
  out.add("sim.frames_dropped", l.frames_dropped, "count");
  out.add("sim.queue_us", l.queue_us, "us");
  out.add("sim.wire_us", l.wire_us, "us");
  out.add("sim.pipeline_us", l.pipeline_us, "us");
  out.add("sim.fabric_build_s", l.fabric_build_s, "s");
  out.add("sim.shard.epochs", l.epochs, "count");
  out.add("sim.shard.epochs_per_op", l.epochs_per_op, "epochs/op");
  out.add("sim.shard.cross_frames", l.cross_frames, "count");
  out.add("sim.shard.ring_overflow", l.ring_overflow, "count");
  out.add("sim.shard.exec_ns_p50", l.exec_ns_p50, "ns");
  out.add("sim.shard.exec_ns_sum", l.exec_ns_sum, "ns");
  out.add("sim.shard.barrier_wait_ns_p50", l.barrier_wait_ns_p50, "ns");
  out.add("sim.shard.drain_ns_sum", l.drain_ns_sum, "ns");
  out.add("sim.shard.lane_util_pct_p50", l.lane_util_pct_p50, "%");
  out.add("check.events_observed", l.check_events, "count");
  out.add("check.violations", l.check_violations, "count");
  out.add("obs.trace_overhead", l.trace_overhead, "ratio");
}

std::uint64_t counter_sum(const obs::MetricsSnapshot& s,
                          std::string_view part) {
  std::uint64_t total = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.find(part) != std::string::npos) total += v;
  }
  return total;
}

void read_sim_counters(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after, Layers& l) {
  auto delta = [&](std::string_view part) {
    return static_cast<double>(counter_sum(after, part) -
                               counter_sum(before, part));
  };
  const double fresh = delta("simcore/pool_fresh");
  const double reused = delta("simcore/pool_reused");
  l.pool_reuse_ratio = fresh + reused > 0 ? reused / (fresh + reused) : 0.0;
  const double hits = delta("/switch/table_hits");
  const double misses = delta("/switch/table_misses");
  l.table_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  l.switch_punted = delta("/switch/punted");
  l.frames_dropped = delta("net/frames_dropped_");
}

void read_shard_profile(const obs::MetricsSnapshot& s, Layers& l) {
  for (const auto& [name, h] : s.histograms) {
    if (name == "shard/exec_host_ns") {
      l.exec_ns_p50 = h.p50;
      l.exec_ns_sum = static_cast<double>(h.sum);
    } else if (name == "shard/barrier_wait_ns") {
      l.barrier_wait_ns_p50 = h.p50;
    } else if (name == "shard/drain_host_ns") {
      l.drain_ns_sum = static_cast<double>(h.sum);
    } else if (name == "shard/lane_utilization_pct") {
      l.lane_util_pct_p50 = h.p50;
    }
  }
}

void read_span_layers(const obs::Tracer& tracer, SimTime from, double ops,
                      Layers& l) {
  double queue = 0, wire = 0, pipeline = 0;
  for (const obs::SpanRecord& sp : tracer.spans()) {
    if (sp.begin < from || sp.open()) continue;
    const auto d = static_cast<double>(sp.end - sp.begin);
    if (sp.name == "queue") queue += d;
    if (sp.name == "wire") wire += d;
    if (sp.name == "pipeline") pipeline += d;
  }
  l.queue_us = queue / 1e3 / ops;
  l.wire_us = wire / 1e3 / ops;
  l.pipeline_us = pipeline / 1e3 / ops;
}

double lookup_ns(MatchActionTable& table, const std::vector<U128>& keys) {
  return time_per_item_ns(keys, [&table](const U128& k) {
    return table.lookup(k).has_value() ? std::uint64_t{1} : 0;
  });
}

}  // namespace perfbench
