#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/test_perfbench.py

Checks, for every workload in BENCHMARK.json and for serve_mixed, that an
untraced run emits exactly the end-to-end metrics with their units and a
traced run exactly the per-layer metrics, that both runs are correct, and
that a deliberately perturbed answer (--perturb) is caught: the run reports
a failure and ok_ratio (1 - fail_ratio) drops below 1.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# serve_mixed runs by name but is not declared (see README.md, Steadiness).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve_mixed"]


def run(workload, trace, *extra):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}")
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_metric_is_emitted_with_its_unit(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = run(name, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1)
                traced = run(name, 1)
                self.check_metrics(traced, SPEC["per_layer"])
                self.assertTrue(traced["correct"])

    def test_perturbed_answer_raises_fail_ratio(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = run(name, 0, "--perturb")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)


if __name__ == "__main__":
    sys.exit(unittest.main())
