"""Checks of the benchmark's own statistics on synthetic data.

Run with ``python3 perfbench/selftest.py`` (a few seconds).  The file name
keeps it out of the repository's pytest collection on purpose.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import match_nested, op_shares  # noqa: E402
from stats import (dealt, due_latencies, geomean, percentile,  # noqa: E402
                   poisson_arrivals, supported_percentile)


class PercentileTest(unittest.TestCase):
    def test_matches_numpy_linear_definition(self):
        import numpy as np

        rng = random.Random(3)
        for n in (1, 2, 7, 100, 1001):
            values = [rng.lognormvariate(0, 1) for _ in range(n)]
            for q in (0, 10, 50, 90, 99, 100):
                self.assertAlmostEqual(percentile(values, q),
                                       float(np.percentile(values, q)), places=9)

    def test_small_cases(self):
        self.assertEqual(percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertEqual(percentile([1, 2], 50), 1.5)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_supported_percentile_needs_ten_beyond(self):
        self.assertIsNone(supported_percentile(19))
        self.assertEqual(supported_percentile(20), 50)
        self.assertEqual(supported_percentile(99), 50)
        self.assertEqual(supported_percentile(100), 90)
        self.assertEqual(supported_percentile(999), 90)
        self.assertEqual(supported_percentile(1000), 99)
        self.assertEqual(supported_percentile(10000), 99.9)


class MeansAndLatencyTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(geomean([1, 100]), 10)
        self.assertAlmostEqual(geomean([2, 2, 2]), 2)
        with self.assertRaises(ValueError):
            geomean([1, 0])
        with self.assertRaises(ValueError):
            geomean([])

    def test_due_time_latency_charges_generator_stall(self):
        # Two requests due at 0 and 10 ms; the generator stalls and sends
        # both at 50 ms; each takes 5 ms once sent.
        due = [0.000, 0.010]
        sent = [0.050, 0.050]
        done = [0.055, 0.060]
        self.assertEqual([round(x, 6) for x in due_latencies(due, done)],
                         [0.055, 0.050])
        # timed from the send, the stall would vanish
        self.assertEqual([round(x, 6) for x in due_latencies(sent, done)],
                         [0.005, 0.010])
        with self.assertRaises(ValueError):
            due_latencies([0.0], [])


class ArrivalTest(unittest.TestCase):
    def test_poisson_count_is_fixed_and_times_are_seeded(self):
        a = poisson_arrivals(30.0, 20.0, random.Random(7))
        b = poisson_arrivals(30.0, 20.0, random.Random(7))
        c = poisson_arrivals(30.0, 20.0, random.Random(8))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), 600)
        self.assertEqual(len(c), 600)
        self.assertTrue(all(0 <= t < 20.0 for t in a))
        self.assertEqual(a, sorted(a))

    def test_poisson_gaps_are_exponential(self):
        times = poisson_arrivals(50.0, 400.0, random.Random(3))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        self.assertAlmostEqual(mean, 1 / 50.0, delta=0.05 / 50.0)
        # exponential: the share of gaps above the mean is exp(-1)
        above = sum(1 for g in gaps if g > mean) / len(gaps)
        self.assertAlmostEqual(above, 0.3679, delta=0.02)

    def test_dealt_keeps_proportions_and_shuffles(self):
        deck = dealt([0.75, 0.25], 601, random.Random(5))
        self.assertEqual(len(deck), 601)
        self.assertEqual(deck.count(0), 451)  # 450.75 rounds up
        self.assertEqual(deck.count(1), 150)
        again = dealt([0.75, 0.25], 601, random.Random(5))
        other = dealt([0.75, 0.25], 601, random.Random(6))
        self.assertEqual(deck, again)
        self.assertNotEqual(deck, other)
        even = dealt([1.0] * 16, 600, random.Random(1))
        self.assertEqual(sorted(set(even.count(i) for i in range(16))), [37, 38])


class LedgerTest(unittest.TestCase):
    def test_overlapping_requests_pair_with_their_own_spans(self):
        outer = [(0, 100, "a"), (10, 60, "b")]
        inner = [(5, 95, "A"), (20, 50, "B")]
        pairs = {o[2]: i[2] for o, i in match_nested(outer, inner)}
        self.assertEqual(pairs, {"a": "A", "b": "B"})

    def test_inner_end_may_trail_outer_end(self):
        pairs = match_nested([(0, 100, "a")], [(10, 101, "A")])
        self.assertEqual([(o[2], i[2]) for o, i in pairs], [("a", "A")])

    def test_unpaired_spans_are_left_out(self):
        pairs = match_nested([(0, 10, "a")], [(20, 30, "A")])
        self.assertEqual(pairs, [])

    def test_op_shares(self):
        class Event:
            def __init__(self, cat, op, dur):
                self.cat, self.args, self.dur_ns = cat, {"op": op}, dur

        events = [Event("plan", "Conv", 300), Event("plan", "Relu", 100),
                  Event("session", "x", 1000)]
        self.assertEqual(op_shares(events), {"Conv": 0.75, "Relu": 0.25})


if __name__ == "__main__":
    unittest.main()
