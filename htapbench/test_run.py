#!/usr/bin/env python3
"""Tests of run.py's result extraction and steady.py's spread statistics.

    python3 htapbench/test_run.py
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import steady  # noqa: E402

GOOD = {"correct": True, "attempted": 12, "failed": 0,
        "metrics": {"hp_p50_us": {"value": 812.3045999999999, "unit": "us"},
                    "lp_ops_per_s": {"value": 301, "unit": "1/s"}}}


class ExtractResult(unittest.TestCase):
    def test_round_trips_the_last_line(self):
        out = "# report line\n" + json.dumps(GOOD) + "\n\n"
        self.assertEqual(run.extract_result(out), GOOD)
        again = run.extract_result(json.dumps(run.extract_result(out)))
        self.assertEqual(again, GOOD)

    def test_only_the_last_line_counts(self):
        self.assertIsNone(run.extract_result(json.dumps(GOOD) + "\ntrailing text\n"))

    def test_rejects_malformed_results(self):
        for bad in (
            {k: v for k, v in GOOD.items() if k != "failed"},
            dict(GOOD, extra=1),
            dict(GOOD, attempted=True),
            dict(GOOD, attempted=1.5),
            dict(GOOD, correct="yes"),
            dict(GOOD, metrics={"x": {"value": "1", "unit": "us"}}),
            dict(GOOD, metrics={"x": {"value": 1}}),
        ):
            self.assertIsNone(run.extract_result(json.dumps(bad)), bad)
        self.assertIsNone(run.extract_result(""))
        self.assertIsNone(run.extract_result("{not json"))


class Spread(unittest.TestCase):
    def test_quartile_spread_over_median(self):
        med, q1, q3, s = steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, 1.0)

    def test_worse_shift_follows_the_direction(self):
        self.assertAlmostEqual(steady.worse_shift(100, 120, "lower"), 0.2)
        self.assertAlmostEqual(steady.worse_shift(100, 80, "lower"), -0.2)
        self.assertAlmostEqual(steady.worse_shift(100, 80, "higher"), 0.2)
        self.assertEqual(steady.verdict(0.05, 0.25), "ok")
        self.assertEqual(steady.verdict(0.2, 0.25), "wide")
        self.assertEqual(steady.verdict(0.3, 0.25), "OVER")


if __name__ == "__main__":
    unittest.main()
