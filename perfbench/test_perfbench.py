#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        # from the repository root

Checks BENCHMARK.json against the benchmark contract, runs the C++
selftest (objmix-4shard-armed's per-tenant rows equal a 1-shard run of
the same config and seed; fabric-forward is shard-count invariant), runs
every workload briefly in both modes and checks the summary line, and
checks that the benchmark refuses to run without the sources.
"""
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class Contract(unittest.TestCase):
    def test_benchmark_json(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = [w["name"] for w in s["workloads"]]
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        e2e = s["end_to_end"]
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in e2e)}, e2e)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + s["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertRegex(m["unit"], UNIT)
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))


class Runs(unittest.TestCase):
    def test_selftest(self):
        r = run("--selftest", "--seed", "5")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_every_workload_prints_its_metrics(self):
        s = spec()
        for w in s["workloads"]:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run("--workload", w["name"], "--seed", "3",
                            "--seconds", "1", "--trace", trace)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    out = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(out), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(out["correct"], r.stdout)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    want = {m["name"]: m["unit"] for m in s[group]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == "0":
                        for k, v in out["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_refuses_without_sources(self):
        build = ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = run("--workload", "objmix", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    sys.exit(unittest.main())
