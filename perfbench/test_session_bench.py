#!/usr/bin/env python3
"""Self-tests of the session benchmark.

Run from the repository root (builds the benchmark first, ~3 minutes):

    python3 perfbench/test_session_bench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

# Counts that depend only on the seed: they must repeat exactly.
SEEDED_COUNTS = (
    "index.distance_evals_per_search",
    "index.nodes_per_search",
    "index.leaves_per_search",
    "index.warm_candidates_mean",
    "merging.merges_per_round",
    "merging.forced_merges_per_round",
    "classifier.new_clusters_per_round",
)


def bench(workload, seed, trace):
    """Runs the built benchmark for one second; returns (report, stdout)."""
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    return report, out.stdout


def values(report):
    return {name: m["value"] for name, m in report["metrics"].items()}


class SessionBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.traced = [bench("paper-color", 7, 1) for _ in range(2)]
        cls.untraced = [bench("paper-color", 7, 0) for _ in range(2)]

    def test_replay_reproduces_session_clusters(self):
        report, stdout = self.traced[0]
        match = re.search(r"replayed rounds=(\d+) \((\d+) mismatched\)",
                          stdout)
        self.assertIsNotNone(match, stdout)
        self.assertGreater(int(match.group(1)), 0)
        self.assertEqual(int(match.group(2)), 0)
        self.assertTrue(report["correct"])
        self.assertEqual(report["failed"], 0)

    def test_same_seed_repeats_counts(self):
        first, second = (values(r) for r, _ in self.traced)
        for name in SEEDED_COUNTS:
            self.assertEqual(first[name], second[name], name)
        recall = [values(r)["recall_at_k"] for r, _ in self.untraced]
        self.assertEqual(recall[0], recall[1])

    def test_second_seed_has_no_errors(self):
        for workload in ("paper-color", "wide-scan", "concurrent-sessions"):
            report, stdout = bench(workload, 2, 0)
            self.assertTrue(report["correct"], stdout)
            self.assertEqual(report["failed"], 0, stdout)
            self.assertGreater(report["attempted"], 0)

    def test_traced_layers_explain_feedback_time(self):
        coverage = values(self.traced[0][0])["trace.coverage_frac"]
        self.assertGreaterEqual(coverage, 0.9)


if __name__ == "__main__":
    unittest.main()
