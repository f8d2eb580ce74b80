#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

  python3 perfbench/test_perfbench.py

- Negative control: a benchmark-side delay around one layer call (the
  estimate call repeated before every bfs_frontier product) must be
  flagged as a regression of op_ms.p50 by the rule the bounds in
  BENCHMARK.json define, and an identical rerun must not be flagged.
- The traced run prints every per-layer metric of BENCHMARK.json, its
  Chrome trace passes tools/check_trace.py, and the per-layer times
  reconcile with call wall time within 5%.
- Without the library sources the benchmark fails fast and prints no
  result.

The runs are short (a few seconds each), so this checks the mechanism,
not the benchmark's steadiness.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
SECONDS = "3"
RUNS_PER_SIDE = 3
# Extra estimate calls per product: makes a bfs_frontier level call
# clearly slower than the bound allows.
INJECT = "estimate:20"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, seed, trace="0", extra=(), cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", trace,
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)
    return out


def result(out):
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def regressions(base, new, end_to_end):
    """Metrics whose median over `new` is worse than the median over
    `base` by more than the metric's bound."""
    flagged = []
    for metric in end_to_end:
        name = metric["name"]
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        worse = n - b if metric["better"] == "lower" else b - n
        if worse > metric["bound"] * b:
            flagged.append(name)
    return flagged


class NegativeControl(unittest.TestCase):
    def test_injected_delay_is_flagged_and_rerun_is_not(self):
        end_to_end = load_benchmark()["end_to_end"]
        base = [result(run("bfs_frontier", 1)) for _ in range(RUNS_PER_SIDE)]
        again = [result(run("bfs_frontier", 1)) for _ in range(RUNS_PER_SIDE)]
        slow = [result(run("bfs_frontier", 1, extra=["--inject", INJECT]))
                for _ in range(RUNS_PER_SIDE)]
        for r in base + again + slow:
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
        # Time metrics only: set-up, results and memory are untouched by
        # the delay, and set-up time is too short here to compare.
        timed = [m for m in end_to_end if m["name"] in
                 ("pass_s", "op_ms.p50", "op_ms.p90")]
        self.assertEqual(regressions(base, again, timed), [])
        self.assertIn("op_ms.p50", regressions(base, slow, timed))


class TracedRun(unittest.TestCase):
    def test_per_layer_metrics_trace_and_reconciliation(self):
        per_layer = load_benchmark()["per_layer"]
        # Spans around the public calls each workload makes in its passes.
        calls = {
            "bfs_frontier": ["PartitionToAtm", "Multiply"],
            "chain_budget": ["PlanChain", "ExecuteChain"],
        }
        for workload, names in calls.items():
            r = result(run(workload, 2, trace="1"))
            self.assertTrue(r["correct"])
            self.assertEqual(sorted(r["metrics"]),
                             sorted(m["name"] for m in per_layer))
            self.assertLessEqual(r["metrics"]["trace.reconcile_err"]["value"],
                                 0.05)
            trace = os.path.join(BUILD, f"trace-{workload}-2.json")
            required = names + ["EstimateProductDensity",
                                "EffectiveWriteThreshold", "check"]
            check = subprocess.run(
                [sys.executable, "tools/check_trace.py", trace] +
                [arg for name in required for arg in ("--require-name", name)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            self.assertEqual(check.returncode, 0, check.stderr)


class WithoutSources(unittest.TestCase):
    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run("bfs_frontier", 1, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
