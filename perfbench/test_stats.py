"""Tests of the benchmark's own arithmetic (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.quantile(values, 0.5), 50)
        self.assertEqual(stats.quantile(values, 0.99), 99)
        self.assertEqual(stats.quantile(values, 1.0), 100)
        self.assertEqual(stats.quantile([7], 0.99), 7)
        self.assertEqual(stats.quantile([3, 1, 2], 0.5), 2)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(1000, 99.9), 1)

    def test_summary_reports_count_median_and_tail(self):
        s = stats.timing_summary([float(v) for v in range(1, 1001)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500.0)
        self.assertEqual(s["tail_percentile"], 99.0)
        self.assertEqual(s["tail"], 990.0)


class Geomean(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([5.0]), 5.0)

    def test_rejects_nonpositive_and_empty(self):
        for bad in ([], [1.0, 0.0], [2.0, -1.0]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)

    def test_speedups_divide_fence_by_each_backend(self):
        triples = [["Add", 128, 8.0, 2.0, 4.0],
                   ["Add", 512, 2.0, 2.0, 1.0]]
        ol, louvre = stats.speedup_geomeans(triples)
        self.assertAlmostEqual(ol, 2.0)     # sqrt(4 * 1)
        self.assertAlmostEqual(louvre, 2.0)  # sqrt(2 * 2)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        [(name, own, total)] = stats.self_times([["a", -1, 5, 25]])
        self.assertEqual((name, own, total), ("a", 20, 20))

    def test_overlapping_children_count_once(self):
        spans = [["parent", -1, 0, 100],
                 ["c1", 0, 10, 30],
                 ["c2", 0, 20, 50],   # overlaps c1: union is 10..50
                 ["c3", 0, 60, 70]]
        out = stats.self_times(spans)
        self.assertEqual(out[0], ("parent", 50, 100))
        self.assertEqual(out[1][1], 20)

    def test_only_direct_children_are_subtracted(self):
        spans = [["root", -1, 0, 100],
                 ["child", 0, 0, 60],
                 ["grandchild", 1, 10, 50]]
        out = stats.self_times(spans)
        self.assertEqual(out[0][1], 40)
        self.assertEqual(out[1][1], 20)
        self.assertEqual(out[2][1], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [["p", -1, 0, 100], ["c", 0, 90, 130]]
        self.assertEqual(stats.self_times(spans)[0][1], 90)

    def test_span_table_sums_by_name(self):
        spans = [["p", -1, 0, 10], ["p", -1, 20, 50], ["c", 1, 25, 35]]
        table = stats.span_table(spans)
        self.assertEqual(table["p"]["count"], 2)
        self.assertEqual(table["p"]["self"], 30)
        self.assertEqual(table["p"]["total"], 40)
        self.assertEqual(sorted(table["p"]["self_calls"]), [10, 20])


class FailureCounting(unittest.TestCase):
    def test_ops_and_serve_requests_are_counted(self):
        ops = [["grid_point", 1, ""], ["point", 0, "golden mismatch"],
               ["fleet_start", 1, ""]]
        rungs = [{"rate": 120, "samples": [[1.0, 0.0, 1, 0, 0],
                                           [2.0, 0.0, 0, 1, 0]]},
                 {"rate": 240, "samples": [[1.0, 0.0, 1, 0, 0]]}]
        attempted, failed, details = stats.count_failures(ops, rungs)
        self.assertEqual(attempted, 6)
        self.assertEqual(failed, 2)
        self.assertIn("point: golden mismatch", details)
        self.assertIn("serve request at 120 rps", details)

    def test_failed_requests_miss_the_latency_limit(self):
        rung = {"rate": 1, "samples": [[5.0, 0.0, 1, 0, 0],
                                       [6.0, 0.0, 0, 0, 0]]}
        lat = stats.rung_latencies(rung)
        self.assertEqual(lat[0], 5.0)
        self.assertTrue(math.isinf(lat[1]))


class OpenLoop(unittest.TestCase):
    def test_backlog(self):
        self.assertFalse(stats.backlog_grows([100.0] * 1000))
        growing = [i * 100.0 for i in range(1000)]  # 0 .. 99.9 ms late
        self.assertTrue(stats.backlog_grows(growing))

    def test_slices_pool_by_rate_in_offered_order(self):
        slices = [{"rate": 120, "seconds": 1.0, "samples": [[1.0, 0.0]]},
                  {"rate": 720, "seconds": 0.5, "samples": [[9.0, 0.0]]},
                  {"rate": 120, "seconds": 2.0, "samples": [[2.0, 0.0]]}]
        rungs = stats.pool_rates(slices)
        self.assertEqual([r["rate"] for r in rungs], [120, 720])
        self.assertEqual(rungs[0]["seconds"], 3.0)
        self.assertEqual(rungs[0]["samples"], [[1.0, 0.0], [2.0, 0.0]])
        self.assertEqual(len(rungs[0]["slices"]), 2)

    def test_slice_median_resists_a_slow_slice(self):
        fast = [[100.0, 0.0, 1], [110.0, 0.0, 1], [120.0, 0.0, 1]]
        slow = [[900.0, 0.0, 1], [950.0, 0.0, 1], [990.0, 0.0, 0]]
        rung = {"slices": [fast, slow, fast]}
        self.assertEqual(stats.slice_median(rung), 110.0)
        # Pooled, the slow slice would move the median to 120.
        self.assertEqual(
            stats.quantile([s[0] for p in rung["slices"] for s in p], 0.5),
            120.0)

    def test_backlog_grows_in_most_slices(self):
        steady = [[0.0, 100.0]] * 100
        growing = [[0.0, i * 100.0] for i in range(100)]
        rung = {"slices": [steady, growing, steady]}
        self.assertFalse(stats.rate_backlog_grows(rung))
        rung = {"slices": [growing, growing, steady]}
        self.assertTrue(stats.rate_backlog_grows(rung))

    def test_slo_rate_all_rates_met(self):
        points = [(100, 10.0, False), (200, 20.0, False)]
        self.assertEqual(stats.slo_rate(points, 50.0), 200)

    def test_slo_rate_interpolates_between_met_and_missed(self):
        points = [(100, 10.0, False), (200, 40.0, False),
                  (400, 140.0, False)]
        # 40 -> 140 crosses 90 half way: 200 + 0.5 * 200.
        self.assertAlmostEqual(stats.slo_rate(points, 90.0), 300.0)

    def test_slo_rate_backlog_only_miss_keeps_last_met_rate(self):
        points = [(100, 10.0, False), (200, 20.0, True)]
        self.assertEqual(stats.slo_rate(points, 50.0), 100)

    def test_slo_rate_first_rate_missed(self):
        self.assertAlmostEqual(
            stats.slo_rate([(100, 200.0, False)], 50.0), 25.0)
        self.assertEqual(
            stats.slo_rate([(100, math.inf, False)], 50.0), 0.0)
        self.assertEqual(
            stats.slo_rate([(100, 10.0, False), (200, math.inf, False)],
                           50.0), 100)


if __name__ == "__main__":
    unittest.main()
