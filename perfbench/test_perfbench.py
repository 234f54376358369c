#!/usr/bin/env python3
"""The benchmark's own tests, on smoke sizes that finish in seconds.

    python3 perfbench/test_perfbench.py

They check that every workload passes its output checks in both the
untraced and the traced run, that a corrupted
result (a flipped dump byte, a wrong event count) lands in `failed`, that
every metric BENCHMARK.json names prints with its name and unit, and that
the benchmark refuses to run without the simulator sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)")


def run(workload, trace=0, inject=None, cwd=ROOT, check=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "2",
           "--trace", str(trace), "--smoke"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    if not check:
        return proc
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def test_smoke_runs_pass_and_print_every_metric(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[kind]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, kind=kind):
                    lines, result = run(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    printed = {}
                    for line in lines:
                        m = METRIC_LINE.match(line)
                        if m:
                            float(m.group(2))
                            printed[m.group(1)] = m.group(3)
                    self.assertEqual(printed, want)
                    self.assertEqual(set(result["metrics"]), set(want))
                    for name, unit in want.items():
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit)
                        self.assertIsInstance(metric["value"], (int, float))

    def test_corrupted_results_count_as_failed(self):
        for workload in WORKLOADS:
            for inject in ("dump", "events"):
                with self.subTest(workload=workload, inject=inject):
                    lines, result = run(workload, inject=inject)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertTrue(
                        any(l.startswith("check failed:") for l in lines))

    def test_refuses_to_run_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files, no src/.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(WORKLOADS[0], cwd=bare, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip())
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
