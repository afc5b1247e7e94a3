#!/usr/bin/env python3
"""The benchmark's own tests: a short run of every workload and one traced
run, each checked for the output format and for the workload's output
checks. Run from the root of the repository:

    python3 perfbench/test_bench.py

They take about a minute: every workload measures at least enough
operations for its p90, whatever --seconds says.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(workload, trace=0, seed=1, seconds=1, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return p.returncode, p.stdout.strip().splitlines()


def result_and_detail(test, lines):
    """The last line is the result object, the one before it the detail."""
    test.assertGreaterEqual(len(lines), 2)
    result = json.loads(lines[-1])
    test.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
    test.assertIsInstance(result["correct"], bool)
    test.assertIsInstance(result["attempted"], int)
    test.assertIsInstance(result["failed"], int)
    test.assertGreaterEqual(result["attempted"], 1)
    for name, m in result["metrics"].items():
        test.assertEqual(set(m), {"value", "unit"}, name)
        test.assertIsInstance(m["value"], (int, float), name)
        test.assertTrue(math.isfinite(m["value"]), name)
    return result, json.loads(lines[-2])["detail"]


class Untraced(unittest.TestCase):
    def run_workload(self, workload):
        code, lines = bench(workload)
        self.assertEqual(code, 0, lines)
        result, detail = result_and_detail(self, lines)
        self.assertTrue(result["correct"])
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()},
                         E2E)
        for name in E2E:
            self.assertGreater(result["metrics"][name]["value"], 0, name)
        self.assertGreaterEqual(detail["p90_samples_beyond"], 10)
        return result, detail

    def test_refine_sweep(self):
        result, detail = self.run_workload("refine-sweep")
        self.assertEqual(detail["digest"], "6e491ed7dba45c37d04157d3904a6851")
        self.assertEqual(detail["visited_per_sweep"], 113919)
        self.assertEqual(result["failed"], 0)

    def test_vrmd_cold(self):
        result, detail = self.run_workload("vrmd-cold")
        self.assertEqual(result["failed"], 0)
        self.assertEqual(detail["requests"], result["attempted"])
        self.assertEqual(detail["requests"] % detail["catalog_jobs"], 0)
        self.assertEqual(detail["shed"], 0)

    def test_vrmd_warm(self):
        result, detail = self.run_workload("vrmd-warm")
        self.assertEqual(result["failed"], 0)
        self.assertEqual(detail["disk_hits"], 0)
        self.assertGreaterEqual(detail["p99_samples_beyond"], 10)

    def test_kcore_fuzz(self):
        result, detail = self.run_workload("kcore-fuzz")
        # violating storms are failed operations, reported, not fatal
        self.assertEqual(result["failed"], len(detail["failing_storms"]))
        pass_ratio = result["metrics"]["pass_ratio"]["value"]
        self.assertAlmostEqual(
            pass_ratio, 1 - result["failed"] / result["attempted"])

    def test_same_seed_same_inputs(self):
        runs = [result_and_detail(self, bench("kcore-fuzz", seed=s)[1])
                for s in (7, 7, 8)]
        first = [detail["first_storm_seeds"] for _, detail in runs]
        self.assertEqual(first[0], first[1])
        self.assertNotEqual(first[0], first[2])
        # the seed orders a fixed pool of storms, so every seed checks the
        # same storms and finds the same failures
        for result, detail in runs[1:]:
            self.assertEqual(result["attempted"], runs[0][0]["attempted"])
            self.assertEqual(detail["failing_storms"],
                             runs[0][1]["failing_storms"])


class Traced(unittest.TestCase):
    def test_census(self):
        code, lines = bench("vrmd-warm", trace=1, seed=3)
        self.assertEqual(code, 0, lines)
        result, _ = result_and_detail(self, lines)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        self.assertEqual({k: m["unit"] for k, m in metrics.items()}, PER_LAYER)
        exact = {
            "refine-sweep.memmodel.visited": 113919,
            "refine-sweep.memmodel.por_pruned": 30905,
            "refine-sweep.memmodel.cert_calls": 18916,
            "refine-sweep.memmodel.cert_hits": 9921,
            "vrmd-cold.service.coalesced": 0,
            "vrmd-cold.service.shed": 0,
        }
        for name, value in exact.items():
            self.assertEqual(metrics[name]["value"], value, name)
        for part in ("refine-sweep", "kcore-fuzz", "vrmd-cold", "vrmd-warm"):
            self.assertGreaterEqual(
                metrics[part + ".accounted_ratio"]["value"], 0.9, part)
        # the spans written at exit: every parent is a span of the same
        # request, and encloses its child
        path = os.path.join(ROOT, ".perfbench-run", "spans-vrmd-warm.jsonl")
        with open(path) as f:
            spans = [json.loads(line) for line in f]
        self.assertTrue(spans)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            self.assertEqual(set(s), {"id", "parent", "req", "name",
                                      "start", "end"})
            self.assertLessEqual(s["start"], s["end"])
            if s["parent"]:
                p = by_id[s["parent"]]
                self.assertEqual(p["req"], s["req"])
                self.assertLessEqual(p["start"], s["start"])
                self.assertLessEqual(s["end"], p["end"])


class Contract(unittest.TestCase):
    def test_refuses_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p))
            code, lines = bench("refine-sweep", cwd=d)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])

    def test_rejects_unknown_workload(self):
        code, lines = bench("no-such-workload")
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
