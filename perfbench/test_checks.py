#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks, at smoke sizes.

    python3 perfbench/test_checks.py

Each check is broken on purpose (perfbench --break) and must turn the result
incorrect with failed operations; the unbroken runs must pass.  A broken
check that still passes would let a wrong program post a speed-up.  Every
workload must also report exactly the metrics BENCHMARK.json declares.
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def smoke(workload, trace=0, broken=None):
    extra = ["--smoke"] + (["--break", broken] if broken else [])
    code, out = run.run(workload, 7, 1, trace, extra, capture=True)
    if code != 0:
        raise AssertionError("%s exited %d:\n%s" % (workload, code, out))
    return run.result_of(out), out


class BrokenChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assert_caught(self, workload, broken, message, trace=0):
        result, out = smoke(workload, trace, broken)
        self.assertFalse(result["correct"], out)
        self.assertGreater(result["failed"], 0, out)
        self.assertIn(message, out)

    def test_unbroken_runs_pass(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result, out = smoke(workload, trace)
                    self.assertTrue(result["correct"], out)
                    self.assertEqual(result["failed"], 0, out)

    def test_wrong_divergence_step(self):
        self.assert_caught("bisect-32k", "divergence-step", "expected")
        self.assert_caught("bisect-32k", "divergence-step", "expected", trace=1)

    def test_non_finite_state(self):
        for workload in ("fluid-100k", "paper-n2-8k", "ensemble-32k"):
            with self.subTest(workload=workload):
                self.assert_caught(workload, "nonfinite", "not finite")
        self.assert_caught("fluid-100k", "nonfinite", "not finite", trace=1)

    def test_drift_over_bound(self):
        for workload in ("fluid-100k", "paper-n2-8k", "ensemble-32k"):
            with self.subTest(workload=workload):
                self.assert_caught(workload, "drift", "exceeds bound")

    def test_unfinished_job(self):
        self.assert_caught("ensemble-32k", "unfinished", "ended interrupted")
        self.assert_caught("ensemble-32k", "unfinished", "ended interrupted", trace=1)

    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, _ = smoke(workload, trace)
                    reported = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(reported, declared)

    def test_every_failed_step_is_counted(self):
        result, out = smoke("paper-n2-8k", broken="nonfinite")
        self.assertEqual(result["failed"], result["attempted"], out)


if __name__ == "__main__":
    unittest.main()
