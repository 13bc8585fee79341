#!/usr/bin/env python3
"""The pipeline benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

A smoke-size run of every workload exits 0 and prints every metric that
BENCHMARK.json names, with its unit, both in its table and in its final JSON
line; a run whose oracle is deliberately perturbed exits non-zero without
printing a result.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, trace, section):
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"]):
                done = run(workload["name"], trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for metric in BENCH[section]:
                    name, unit = metric["name"], metric["unit"]
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    self.assertIsInstance(result["metrics"][name]["value"], (int, float))
                    self.assertRegex(done.stdout,
                                     r"(?m)^%s +\S+ +%s( |$)" % (re.escape(name), re.escape(unit)))
                if trace:
                    # The traced run's self-time and agent cross-checks ran
                    # (either failing would have exited non-zero).
                    self.assertRegex(done.stdout, r"(?m)^  replay +layers sum to ")
                    self.assertRegex(done.stdout, r"(?m)^  agent0 +layers sum to ")
                    self.assertIn("agent cross-check:", done.stdout)

    def test_end_to_end_metrics(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_metrics(1, "per_layer")


class CorrectnessGate(unittest.TestCase):
    def test_perturbed_oracle_fails_the_run(self):
        done = run("elephant_flows", 0, "--perturb-oracle")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        self.assertIn("oracle", done.stderr)


if __name__ == "__main__":
    unittest.main()
