#!/usr/bin/env python3
"""Sanity-check `fablint --shard-report` over the real tree.

The shard report is the sharded loop's synchronization inventory
(DESIGN.md §16): every CROSS_SHARD state declaration, every SHARD_LANED
lane array, and every annotated mutator, as machine-readable JSON.  An
empty inventory means the annotation layer silently stopped parsing —
exactly the regression this test exists to catch.  Asserts:

  * the report is valid JSON with the five inventory arrays,
  * each array the annotated tree is known to populate is non-empty,
  * a few load-bearing entries are present, each as a (class, member)
    pair: Network's topology state, the four laned structures
    (Network's lane block, BufferPool's free lists, ShardJournal's
    record lanes, ShardProfiler's per-lane series), the timing-wheel
    capability guards.  (Frame, trace and span ids are per-NODE, not
    per-lane — what a run shows must not depend on the shard count — so
    no id allocator appears here.)

Usage: check_shard_report.py <fablint-binary> <src-dir>
"""

import json
import subprocess
import sys


def main() -> int:
    fablint, src = sys.argv[1], sys.argv[2]
    proc = subprocess.run(
        [fablint, "--shard-report", src],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(f"fablint exited {proc.returncode}: {proc.stderr}\n")
        return 1
    report = json.loads(proc.stdout)

    required_nonempty = [
        "capabilities",
        "cross_shard_state",
        "laned_state",
        "shard_guarded_state",
        "cross_shard_functions",
        "hot_path_functions",
    ]
    ok = True
    for key in required_nonempty:
        entries = report.get(key)
        if not entries:
            sys.stderr.write(f"shard report: '{key}' is empty or missing\n")
            ok = False
        else:
            print(f"  {key}: {len(entries)} entries")

    def pairs(key):
        return {(e.get("class", ""), e.get("member", ""))
                for e in report.get(key, [])}

    expectations = [
        ("cross_shard_state", "objrpc::Network", "node_up_",
         "Network's topology up/down map"),
        ("cross_shard_state", "objrpc::Network", "node_flips_",
         "Network's node transition log"),
        ("laned_state", "objrpc::Network", "lanes_",
         "Network's lane block (stats, digest sums, handoffs)"),
        ("laned_state", "objrpc::BufferPool", "lanes_",
         "laned pool free lists"),
        ("laned_state", "objrpc::obs::ShardJournal", "lanes_",
         "laned observer journal"),
        ("laned_state", "objrpc::obs::ShardProfiler", "lanes_",
         "the profiler's per-lane series (K lanes, no control lane)"),
        ("shard_guarded_state", "objrpc::TimingWheel", "buckets_",
         "TimingWheel buckets"),
    ]
    for key, cls, member, what in expectations:
        if (cls, member) not in pairs(key):
            sys.stderr.write(f"shard report: {what} ('{cls}::{member}') "
                             f"missing from {key}\n")
            ok = False

    print("shard report ok" if ok else "shard report FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
