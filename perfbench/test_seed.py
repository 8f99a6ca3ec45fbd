#!/usr/bin/env python3
"""Seed test of the benchmark's inputs.

    python3 perfbench/test_seed.py

With one seed the serving request streams are identical, and so are
derive's accuracy fractions and its observation and state counts. A
different seed changes the serving streams but keeps every workload's
shape: the same request mix and working-set sizes, and the same job list.
It builds the benchmark first (run.py) and takes about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVING = ("serve_point", "serve_batch", "serve_feedback")


def describe(workload, seed):
    """Runs the benchmark's --describe mode; returns its JSON lines."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--describe"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError("describe %s %d failed:\n%s%s" %
                             (workload, seed, done.stdout, done.stderr))
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def shape(description):
    return {k: v for k, v in description.items() if k != "stream_digest"}


class SeedTest(unittest.TestCase):

    def test_serving_streams_follow_the_seed(self):
        for workload in SERVING:
            with self.subTest(workload=workload):
                (a,) = describe(workload, 7)
                (b,) = describe(workload, 7)
                (c,) = describe(workload, 8)
                self.assertEqual(a, b)
                self.assertNotEqual(a["stream_digest"], c["stream_digest"])
                self.assertEqual(shape(a), shape(c))

    def test_serving_shapes(self):
        (point,) = describe("serve_point", 3)
        (batch,) = describe("serve_batch", 3)
        (feedback,) = describe("serve_feedback", 3)
        self.assertEqual(point["working_set"], 1024)
        self.assertEqual(point["frame_items"], 1)
        self.assertEqual(batch["working_set"], 65536)
        self.assertEqual(batch["frame_items"], 64)
        self.assertTrue(feedback["reports"])
        # serve_feedback sends serve_point's hot set, plus reports.
        self.assertEqual(shape(point),
                         dict(shape(feedback), workload="serve_point",
                              reports=False))

    def test_derive_repeats_with_one_seed(self):
        desc_a, result_a = describe("derive", 7)
        desc_b, result_b = describe("derive", 7)
        desc_c, result_c = describe("derive", 8)
        self.assertTrue(result_a["correct"])
        for name in ("very_good_frac", "good_frac",
                     "core.observations_per_model", "core.states_per_model"):
            self.assertEqual(result_a["metrics"][name]["value"],
                             result_b["metrics"][name]["value"], name)
        self.assertEqual(desc_a, desc_b)
        self.assertEqual(desc_a, desc_c)
        self.assertEqual(len(desc_a["jobs"]), 12)
        self.assertEqual(result_a["attempted"], result_c["attempted"])


if __name__ == "__main__":
    unittest.main()
