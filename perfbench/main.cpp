// objrpc end-to-end benchmark.
//
//   objrpc_perfbench --workload <objmix|objmix-4shard-armed|fabric-forward>
//                    --seed <n> --seconds <s> --trace <0|1>
//   objrpc_perfbench --selftest [--seed <n>]
//
// --trace 0 measures the end-to-end metrics (untraced, repeated for
// --seconds); --trace 1 runs the workload once more with the tracer,
// the shard profiler and a frame tap armed and reports the per-layer
// metrics.  The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status is 0 when the run completed (the JSON says whether its
// outputs checked out), 2 on bad arguments.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

int usage() {
  std::fprintf(stderr,
               "usage: objrpc_perfbench --workload <objmix|objmix-4shard-armed"
               "|fabric-forward> --seed <n> --seconds <s> --trace <0|1>\n"
               "       objrpc_perfbench --selftest [--seed <n>]\n");
  return 2;
}

/// Environment toggles the library reads would silently change what is
/// measured (arm tracing, force serial execution, shard every cluster);
/// the workloads set what they need explicitly.
void scrub_environment() {
  for (const char* var :
       {"OBJRPC_SHARDS", "OBJRPC_SHARDS_SERIAL", "OBJRPC_OBS_SERIAL",
        "OBJRPC_SHARD_PROFILE", "CHECK_INVARIANTS", "CHECK_DIGEST_FILE",
        "OBS_TRACE_FILE", "OBS_METRICS_FILE"}) {
    unsetenv(var);
  }
}

void print_outcome(Outcome& out) {
  for (const perfbench::Metric& m : out.metrics) {
    // NaN/inf would make the summary unparsable; a non-finite value is
    // a measurement bug, so it marks the run incorrect.
    if (!std::isfinite(m.value)) out.fail(m.name + " is not finite");
  }
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                out.attempted, out.failed);
  json += buf;
  bool first = true;
  for (const perfbench::Metric& m : out.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"",
                  first ? "" : ", ", m.name.c_str(), v);
    json += buf;
    json += m.unit;
    json += "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool selftest = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && args.seconds > 0;
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || args.trace;
    } else {
      return usage();
    }
  }
  scrub_environment();

  if (selftest) {
    const std::uint64_t seed = have_seed ? args.seed : 1;
    const int failures = perfbench::selftest_object_shard_rows(seed) +
                         perfbench::selftest_fabric_shard_invariance(seed);
    std::printf("selftest: %d failed check(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  Outcome out;
  if (args.workload == "objmix") {
    out = perfbench::run_object_workload(args, /*sharded_armed=*/false);
  } else if (args.workload == "objmix-4shard-armed") {
    out = perfbench::run_object_workload(args, /*sharded_armed=*/true);
  } else if (args.workload == "fabric-forward") {
    out = perfbench::run_fabric_forward(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return usage();
  }
  print_outcome(out);
  return 0;
}
