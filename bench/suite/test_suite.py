#!/usr/bin/env python3
"""Unit tests of the comparison helpers and of BENCHMARK.json's shape.

    python3 bench/suite/test_suite.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))

    def test_single_value(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(compare.spread([9, 10, 10, 10, 11]), 0.1)
        self.assertEqual(compare.spread([5, 5, 5]), 0.0)


class Bounds(unittest.TestCase):
    steady = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]

    def test_worse_share_direction(self):
        self.assertAlmostEqual(compare.worse_share(100, 90, "higher"), 0.1)
        self.assertAlmostEqual(compare.worse_share(100, 90, "lower"), -0.1)

    def test_regression_past_bound(self):
        slow = [v * 0.85 for v in self.steady]
        self.assertEqual(compare.verdict(self.steady, slow, "higher", 0.1),
                         "regression")

    def test_within_bound_is_same(self):
        close = [v * 0.97 for v in self.steady]
        self.assertEqual(compare.verdict(self.steady, close, "higher", 0.1),
                         "same")

    def test_gain_needs_nine_of_ten_wins(self):
        faster = [v * 1.05 for v in self.steady]
        self.assertEqual(compare.verdict(self.steady, faster, "higher", 0.1),
                         "gain")
        mixed = faster[:8] + self.steady[8:]
        self.assertEqual(compare.verdict(self.steady, mixed, "higher", 0.1),
                         "same")

    def test_noisy_parent_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1),
                         "unresolved")
        better = [10.0] * 10
        self.assertEqual(compare.verdict(noisy, better, "lower", 0.1), "gain")

    def test_exact_metrics(self):
        self.assertEqual(compare.verdict([177.1], [177.1], "higher", 0, True),
                         "same")
        self.assertEqual(compare.verdict([177.1], [176.9], "higher", 0, True),
                         "regression")
        self.assertEqual(compare.verdict([0.0], [0.01], "lower", 0, True),
                         "regression")
        self.assertEqual(compare.verdict([177.1], [180.0], "higher", 0, True),
                         "changed")


class Pairing(unittest.TestCase):
    @staticmethod
    def run_set(tmp: Path, name: str, seeds: list[int]) -> str:
        runs = [{"seed": s, "trace": 0, "workloads": {"archive-qp": {
            "metrics": {"cr": {"value": 177.0 + s}}}}} for s in seeds]
        path = tmp / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    def test_runs_pair_by_seed(self):
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            parent = compare.load_runs([self.run_set(tmp, "p", [3, 1, 2])])
            change = compare.load_runs([self.run_set(tmp, "c", [2, 3, 1])])
        p, c = compare.paired(parent, change, "archive-qp", "cr")
        self.assertEqual(p, c)

    def test_mismatched_seeds_are_refused(self):
        with tempfile.TemporaryDirectory() as d:
            tmp = Path(d)
            argv = [self.run_set(tmp, "p", [1, 1]), "--",
                    self.run_set(tmp, "c", [1, 2])]
            self.assertEqual(compare.main(argv), 2)


class BenchmarkJson(unittest.TestCase):
    bench = json.loads((compare.ROOT / "BENCHMARK.json").read_text())

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        runs = 4 + 22 * len(b["workloads"])
        self.assertLess(runs * (b["run_seconds"] + 10), 3420 - 2 * 120)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in b[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"]["unit"], "s")
        self.assertEqual(bounds["setup_s"]["better"], "lower")
        self.assertEqual(bounds["setup_s"]["bound"],
                         max(m["bound"] for m in bounds.values()))

    def test_paths_hold_the_command(self):
        b = self.bench
        self.assertEqual(b["command"][0], "python3")
        for arg in b["command"][1:]:
            self.assertTrue(any(arg.startswith(p + "/") for p in b["paths"]))


if __name__ == "__main__":
    unittest.main()
