#!/usr/bin/env python3
"""Build and run the objrpc end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload objmix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build/ under the repository root, then runs the benchmark binary
with the same arguments.  Build output goes to stderr; the binary's
stdout is passed through unchanged, so its last line is the JSON summary.
Exits non-zero, printing no summary, when the sources or the build are
missing or the run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"objrpc sources not found under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "objrpc_perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    binary = out / "objrpc_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main() -> int:
    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    try:
        proc = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
