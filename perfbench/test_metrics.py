"""Tests of the benchmark's own reductions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


class TailPercentile(unittest.TestCase):
    def test_benchmark_sizes(self):
        # 1280 sweep cells keep 12.8 samples beyond p99; the traced
        # campaign's 201 systems keep 10.05 beyond p95 but only 2.01 beyond
        # p99.
        self.assertEqual(metrics.tail_percentile(1280), 99.0)
        self.assertEqual(metrics.tail_percentile(201), 95.0)

    def test_boundaries(self):
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(9999), 99.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 95.0)
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertIsNone(metrics.tail_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7], 99), 7)


class Spread(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # statistics.quantiles (exclusive method) of 1..9: q1 = 2.5, q3 = 7.5.
        self.assertAlmostEqual(metrics.spread(list(range(1, 10))), 5.0 / 5.0)
        self.assertEqual(metrics.spread([3.0, 3.0, 3.0]), 0.0)
        self.assertEqual(metrics.spread([4.0]), 0.0)


def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_sequential_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90)]
        self.assertEqual(metrics.self_times(spans), {1: 40, 2: 20, 3: 40})

    def test_overlapping_children_count_once(self):
        # Two jobs on two workers overlap in 40..60; the parent is covered
        # over 20..80 only.
        spans = [span(1, 0, 0, 100), span(2, 1, 20, 60), span(3, 1, 40, 80)]
        self.assertEqual(metrics.self_times(spans)[1], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 10, 50), span(2, 1, 0, 20), span(3, 1, 40, 70)]
        self.assertEqual(metrics.self_times(spans)[1], 20)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 10, 50)]
        self.assertEqual(metrics.self_times(spans), {1: 40, 2: 20, 3: 40})

    def test_union(self):
        self.assertEqual(metrics.covered_ns([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(metrics.covered_ns([(0, 30), (5, 15)]), 30)
        self.assertEqual(metrics.covered_ns([]), 0)


class WarmRows(unittest.TestCase):
    COLD = {"cell": 3, "state_digest": "0x1", "cached": False,
            "wall_ms": 2.5, "rss_kb": 900}

    def test_hit_with_equal_fields_matches(self):
        warm = dict(self.COLD, cached=True, wall_ms=0.01, rss_kb=1000)
        self.assertIsNone(metrics.warm_row_mismatch(self.COLD, warm))

    def test_miss_is_reported(self):
        warm = dict(self.COLD, wall_ms=0.01)
        self.assertEqual(metrics.warm_row_mismatch(self.COLD, warm),
                         "not a cache hit")

    def test_changed_field_is_named(self):
        warm = dict(self.COLD, cached=True, state_digest="0x2")
        self.assertEqual(metrics.warm_row_mismatch(self.COLD, warm),
                         "fields differ: state_digest")

    def test_missing_field_is_named(self):
        warm = dict(self.COLD, cached=True)
        del warm["state_digest"]
        self.assertEqual(metrics.warm_row_mismatch(self.COLD, warm),
                         "fields differ: state_digest")


if __name__ == "__main__":
    unittest.main()
