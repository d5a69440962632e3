#!/usr/bin/env python3
"""Determinism self-test of the e2ebench harness.

    python3 e2ebench/test_determinism.py

For every workload, two short runs with one seed must report the same input
fingerprint and identical counts (transactions, gas, accelerated
transactions, interpreter gas, fold jobs, baseline cold reads, speculated
futures, replayed simulated time), and a run with another seed must
report another fingerprint. Each run also checks that every set-up
repetition reproduces the same inputs.
Builds the benchmark first, like run.py.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["l1_mix", "cold_state"]
SECONDS = 2  # about ten measured blocks
COUNTS = ["txs", "gas", "accelerated_txs", "forerunner_interpreter_gas", "fold_jobs",
          "base_cold_reads", "spec_futures", "sim_seconds"]


def replay(workload, seed, tag):
    out = os.path.join(run.OUT_DIR, "selftest.%s.seed%d.%s.json" % (workload, seed, tag))
    command = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
               str(SECONDS), "--trace", "0", "--out", out]
    result = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        raise AssertionError("%s seed %d failed:\n%s%s" % (
            workload, seed, result.stdout, result.stderr))
    with open(out) as f:
        return json.load(f)


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("benchmark build failed")
        os.makedirs(run.OUT_DIR, exist_ok=True)

    def test_same_seed_same_counts_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = replay(workload, 7, "a")
                second = replay(workload, 7, "b")
                other = replay(workload, 8, "c")
                self.assertEqual(first["failed"], 0)
                self.assertEqual(first["fingerprint"], second["fingerprint"])
                for key in COUNTS:
                    self.assertEqual(first["counts"][key], second["counts"][key], key)
                self.assertGreater(first["counts"]["txs"], 0)
                self.assertNotEqual(first["fingerprint"], other["fingerprint"])


if __name__ == "__main__":
    unittest.main()
