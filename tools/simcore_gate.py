#!/usr/bin/env python3
"""Perf gate for bench/simcore: catch event-loop hot-path regressions.

Compares a fresh BENCH_simcore.json against the committed baseline
(bench/BENCH_simcore.baseline.json) and fails if any gated throughput
metric regressed past its tolerance.  Two kinds of checks:

  1. Relative — each metric gates against the baseline with its own
     tolerance.  `speedup_vs_legacy` is a ratio of two measurements
     taken in the same process, so load noise partially cancels and it
     gets a tight band (30%).  Absolute events/sec depend on the runner
     and swing hard on shared VMs, so they only catch catastrophic
     regressions (50%) — e.g. the hot path reverting to a node-per-event
     heap, which shows up as a 5-10x collapse, not a 30% dip.

  2. Absolute — `speedup_vs_legacy` must also clear the floor from the
     scaling work's acceptance bar (>= 5x over the pre-refactor loop at
     the 262144-pending-event scale), and the routed 1024-host fabric
     must have delivered every packet with zero checker violations.

  3. Sharding — `shards_digest_match` must be 1 on every machine (the
     parallel loop's byte-identity bar is not a perf number), and when
     the run had >= 4 hardware threads (`cores`) the 4-shard sweep must
     scale >= 2.5x over 1 shard on the leaf-spine fabric.  On smaller
     machines the scaling check is skipped LOUDLY, never silently.

  4. Armed observers (DESIGN.md §17) — `shards_armed_digest_match` and
     `shards_armed_concurrent` must be 1 on every machine: a 4-shard
     run with tracer + checker + profiler armed must reproduce the
     serial digest WITHOUT falling back to the serial driver.  With
     >= 4 cores, `shards_armed_overhead_4` (armed-concurrent time over
     armed-serial time — the cost of the observer journal's
     defer/copy/replay relative to inline serial observation) must be
     <= 1.15x; skipped loudly below 4 cores where worker ping-pong on
     oversubscribed cores drowns the measurement.  The profiler's
     shard/* metrics must be present in `shard_profile_metrics`.

Usage: tools/simcore_gate.py <current.json> [baseline.json]
Exit 0 = within tolerance; 1 = regression (details on stderr).
"""

import json
import os
import sys

SPEEDUP_FLOOR = 5.0
RATIO_TOLERANCE = 0.30
ABSOLUTE_TOLERANCE = 0.50
SHARD_SCALING_FLOOR = 2.5  # 4 shards vs 1, leaf-spine, cores >= 4 only
SHARD_SCALING_MIN_CORES = 4
ARMED_OVERHEAD_CEILING = 1.15  # armed-concurrent vs armed-serial time
# Every profiler metric family that must appear in the armed run's
# registry dump (shard_profile_metrics).
PROFILE_METRIC_KEYS = [
    "shard/epoch_host_ns",
    "shard/exec_host_ns",
    "shard/barrier_wait_ns",
    "shard/drain_host_ns",
    "shard/lane_utilization_pct",
    "shard/ring_occupancy",
    "shard/epochs",
    "shard/cross_frames",
]

# Metric -> allowed drop vs baseline (higher is better for all of them).
RELATIVE_GATES = [
    ("chains_64_events_per_sec", ABSOLUTE_TOLERANCE),
    ("chains_4096_events_per_sec", ABSOLUTE_TOLERANCE),
    ("chains_262144_events_per_sec", ABSOLUTE_TOLERANCE),
    ("chains_64_speedup", RATIO_TOLERANCE),
    ("chains_4096_speedup", RATIO_TOLERANCE),
    ("speedup_vs_legacy", RATIO_TOLERANCE),
    ("fabric_events_per_sec", ABSOLUTE_TOLERANCE),
    ("fabric_packets_per_sec", ABSOLUTE_TOLERANCE),
]


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current_path = sys.argv[1]
    baseline_path = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "bench", "BENCH_simcore.baseline.json")

    current = load(current_path)
    baseline = load(baseline_path)
    failures = []

    for key, tolerance in RELATIVE_GATES:
        if key not in baseline:
            failures.append(f"baseline is missing gated metric '{key}'")
            continue
        if key not in current:
            failures.append(f"current run is missing gated metric '{key}'")
            continue
        floor = baseline[key] * (1.0 - tolerance)
        if current[key] < floor:
            failures.append(
                f"{key}: {current[key]:.4g} < {floor:.4g} "
                f"(baseline {baseline[key]:.4g} - {tolerance:.0%})")

    speedup = current.get("speedup_vs_legacy", 0.0)
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"speedup_vs_legacy: {speedup:.2f} below the {SPEEDUP_FLOOR}x "
            "acceptance floor")
    if current.get("checker_violations", 1) != 0:
        failures.append("checker_violations != 0: fabric run was not clean")
    delivered = current.get("fabric_delivered", 0)
    if delivered <= 0:
        failures.append("fabric_delivered is zero: routed fabric is broken")

    if current.get("shards_digest_match", 0.0) != 1.0:
        failures.append(
            "shards_digest_match != 1: parallel runs diverged from the "
            "1-shard wire digest")
    cores = current.get("cores", 0.0)
    scaling = current.get("shards_leafspine_scaling_4")
    if scaling is None:
        failures.append("current run is missing 'shards_leafspine_scaling_4'")
    elif cores >= SHARD_SCALING_MIN_CORES:
        if scaling < SHARD_SCALING_FLOOR:
            failures.append(
                f"shards_leafspine_scaling_4: {scaling:.2f}x below the "
                f"{SHARD_SCALING_FLOOR}x floor ({cores:.0f} cores)")
    else:
        print(
            f"simcore_gate: SKIPPED shard scaling floor — run had "
            f"{cores:.0f} hardware threads (< {SHARD_SCALING_MIN_CORES}); "
            f"measured {scaling:.2f}x at 4 shards, digest match only",
            file=sys.stderr)

    # Armed-observer leg (§17): byte-identity and staying concurrent are
    # correctness bars, enforced everywhere; the overhead ceiling is a
    # perf number and needs real cores.
    if current.get("shards_armed_digest_match", 0.0) != 1.0:
        failures.append(
            "shards_armed_digest_match != 1: armed 4-shard run diverged "
            "from the serial digest")
    if current.get("shards_armed_concurrent", 0.0) != 1.0:
        failures.append(
            "shards_armed_concurrent != 1: armed observers forced the "
            "serial driver")
    overhead = current.get("shards_armed_overhead_4")
    if overhead is None:
        failures.append("current run is missing 'shards_armed_overhead_4'")
    elif cores >= SHARD_SCALING_MIN_CORES:
        if overhead > ARMED_OVERHEAD_CEILING:
            failures.append(
                f"shards_armed_overhead_4: {overhead:.3f}x above the "
                f"{ARMED_OVERHEAD_CEILING}x ceiling ({cores:.0f} cores)")
    else:
        print(
            f"simcore_gate: SKIPPED armed overhead ceiling — run had "
            f"{cores:.0f} hardware threads (< {SHARD_SCALING_MIN_CORES}); "
            f"measured {overhead:.3f}x, digest + concurrency checks only",
            file=sys.stderr)
    profile = current.get("shard_profile_metrics")
    profile_blob = json.dumps(profile) if profile is not None else ""
    for key in PROFILE_METRIC_KEYS:
        if key not in profile_blob:
            failures.append(
                f"shard_profile_metrics is missing '{key}' — the shard "
                "profiler did not run or dropped a series")

    if failures:
        for f in failures:
            print(f"simcore_gate: FAIL {f}", file=sys.stderr)
        return 1
    print(f"simcore_gate: OK ({len(RELATIVE_GATES)} metrics within "
          f"tolerance of baseline, speedup {speedup:.2f}x >= "
          f"{SPEEDUP_FLOOR}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
