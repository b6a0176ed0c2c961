#!/usr/bin/env python3
"""Unit tests for the benchmark's metric arithmetic.

    python3 perfbench/test_metrics.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def row(workload, mode="original", cycles=100, tuned=False, **prefetchers):
    r = {"workload": workload, "mode": mode, "cycles": cycles,
         "tuned": tuned}
    for field in metrics.PREFETCHER_FIELDS:
        r[field] = prefetchers.get(field, False)
    return r


class GeomeanRatioTest(unittest.TestCase):
    def test_single_ratio(self):
        self.assertAlmostEqual(metrics.geomean_ratio([(90, 100)]), 0.9)

    def test_geometric_not_arithmetic(self):
        # 0.5 and 2.0: arithmetic mean 1.25, geometric mean exactly 1.
        self.assertAlmostEqual(metrics.geomean_ratio([(50, 100), (200, 100)]),
                               1.0)

    def test_rejects_empty_and_nonpositive(self):
        with self.assertRaises(ValueError):
            metrics.geomean_ratio([])
        with self.assertRaises(ValueError):
            metrics.geomean_ratio([(0, 100)])

    def test_sim_cycles_ratio_uses_each_programs_original(self):
        rows = [row("vpr", cycles=200), row("mcf", cycles=1000),
                row("vpr", "dynpref", 100), row("mcf", "dynpref", 1000),
                row("vpr", cycles=400, pair_pf=True)]
        # vpr dynpref 0.5, mcf dynpref 1.0, vpr pair 2.0 -> geomean 1.0
        self.assertAlmostEqual(metrics.sim_cycles_ratio(rows), 1.0)

    def test_tuned_original_is_not_a_baseline(self):
        rows = [row("vpr", cycles=100), row("vpr", cycles=81, tuned=True,
                                            stream_pf=True)]
        self.assertAlmostEqual(metrics.sim_cycles_ratio(rows), 0.81)


class PercentileTest(unittest.TestCase):
    def test_reports_sample_count(self):
        value, count = metrics.percentile([3, 1, 2], 50)
        self.assertEqual((value, count), (2.0, 3))

    def test_p50_is_median_for_even_counts(self):
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 50)[0],
                         metrics.median([1, 2, 3, 4]))

    def test_p90_interpolates(self):
        values = list(range(1, 11))  # 1..10
        value, count = metrics.percentile(values, 90)
        self.assertEqual(count, 10)
        self.assertTrue(math.isclose(value, 9.1))

    def test_extremes_and_errors(self):
        self.assertEqual(metrics.percentile([5, 7], 0)[0], 5.0)
        self.assertEqual(metrics.percentile([5, 7], 100)[0], 7.0)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 101)

    def test_mean(self):
        self.assertEqual(metrics.mean(iter([1, 2, 6])), 3.0)
        with self.assertRaises(ValueError):
            metrics.mean([])


class FailureShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(metrics.failure_share(200, 0), 0.0)
        self.assertEqual(metrics.failure_share(200, 50), 0.25)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            metrics.failure_share(0, 0)
        with self.assertRaises(ValueError):
            metrics.failure_share(10, 11)


class ChecksTest(unittest.TestCase):
    def test_breakdown_sums(self):
        r = row("vpr", cycles=10)
        r["cycle_breakdown"] = {"pure_compute": 4, "demand_stall": 6}
        self.assertTrue(metrics.breakdown_sums(r))
        r["cycle_breakdown"]["demand_stall"] = 5
        self.assertFalse(metrics.breakdown_sums(r))

    def test_figure12_losers(self):
        rows = [row("vpr", cycles=100), row("vpr", "dynpref", 90),
                row("mcf", cycles=100), row("mcf", "dynpref", 100),
                row("mcf", "dynpref", 50, tuned=True)]
        self.assertEqual(metrics.figure12_losers(rows), ["mcf"])

    def test_quartile_spread(self):
        # statistics.quantiles (exclusive) of 1..9: Q1 2.5, Q3 7.5; median 5.
        self.assertAlmostEqual(metrics.quartile_spread(range(1, 10)), 1.0)


if __name__ == "__main__":
    unittest.main()
