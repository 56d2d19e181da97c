#!/usr/bin/env python3
"""Tests of the steadiness script's statistics.

    python3 perfbench/tests/test_steadiness.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.dont_write_bytecode = True

from steadiness import agree, summarize, worse_shift  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        # statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        med, q1, q3, spread = summarize([5, 3, 1, 4, 2])
        self.assertEqual((med, q1, q3), (3, 1.5, 4.5))
        self.assertAlmostEqual(spread, 1.0)

    def test_even_count(self):
        # statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        med, q1, q3, spread = summarize([1, 2, 3, 4])
        self.assertEqual((med, q1, q3), (2.5, 1.25, 3.75))
        self.assertAlmostEqual(spread, 1.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(summarize([7.0] * 10)[3], 0.0)


class WorseShiftTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(worse_shift(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(worse_shift(100.0, 90.0, "lower"), -0.10)

    def test_higher_is_better(self):
        self.assertAlmostEqual(worse_shift(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(worse_shift(100.0, 110.0, "higher"), -0.10)


class AgreeTest(unittest.TestCase):
    def test_is_symmetric(self):
        # A set that got better by more than the bound disagrees too.
        self.assertTrue(agree(100.0, 104.0, 0.05))
        self.assertTrue(agree(100.0, 96.0, 0.05))
        self.assertFalse(agree(100.0, 106.0, 0.05))
        self.assertFalse(agree(100.0, 94.0, 0.05))


if __name__ == "__main__":
    unittest.main()
