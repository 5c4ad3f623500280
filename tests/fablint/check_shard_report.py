#!/usr/bin/env python3
"""Sanity-check `fablint --shard-report` over the real tree.

The shard report is the sharded loop's synchronization inventory
(DESIGN.md §16): every CROSS_SHARD state declaration, every SHARD_LANED
lane array, and every annotated mutator, as machine-readable JSON.  An
empty inventory means the annotation layer silently stopped parsing —
exactly the regression this test exists to catch.  Asserts:

  * the report is valid JSON with the five inventory arrays,
  * each array the annotated tree is known to populate is non-empty,
  * a few load-bearing entries are present (Network's topology state and
    the runner's spill queue, the laned frame-id / pool free-list
    arrays, the timing-wheel capability guards).  (Tracer ids are
    per-NODE, not per-lane — they feed the wire digest and must stay
    shard-count-invariant — so they are deliberately absent here.)

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

    def names(key):
        return {e.get("member", "") for e in report.get(key, [])}

    expectations = [
        ("cross_shard_state", "node_up_", "Network's topology up/down map"),
        ("cross_shard_state", "node_flips_", "Network's node transition log"),
        ("laned_state", "frame_id_lanes_", "laned frame-id allocators"),
        ("laned_state", "lanes_", "laned pool free lists"),
        ("laned_state", "handoff_", "per-lane cross-shard handoffs"),
        ("shard_guarded_state", "buckets_", "TimingWheel buckets"),
    ]
    for key, name, what in expectations:
        if name not in names(key):
            sys.stderr.write(f"shard report: {what} ('{name}') missing "
                             f"from {key}\n")
            ok = False

    print("shard report ok" if ok else "shard report FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
