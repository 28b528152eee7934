"""Tests for run.py's steadiness arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method_of_statistics(self):
        values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 10.1, 9.9]
        row = run.spread(values, bound=0.1)
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((row["q1"], row["median"], row["q3"]), (q1, med, q3))
        self.assertAlmostEqual(row["iqr_frac"], (q3 - q1) / med)
        self.assertAlmostEqual(row["range_frac"], 0.6 / med)

    def test_steady_means_under_a_third_of_the_bound(self):
        tight = [1.00, 1.01, 0.99, 1.00, 1.01]
        wide = [0.8, 1.2, 1.0, 0.9, 1.1]
        self.assertTrue(run.spread(tight, bound=0.1)["steady"])
        self.assertFalse(run.spread(wide, bound=0.1)["steady"])
        self.assertIsNone(run.spread(wide)["steady"])

    def test_needs_two_runs(self):
        with self.assertRaises(ValueError):
            run.spread([1.0])


class CodeDigestTest(unittest.TestCase):
    def test_stable_for_the_same_code(self):
        first = run.code_digest()
        self.assertEqual(first, run.code_digest())
        self.assertRegex(first, r"^[0-9a-f]{16}$")

    def test_digest_record_is_keyed_by_code_and_workload(self):
        args = run.harness_args("perfbench", "table4_default", 3, 30, 0)
        path = args[args.index("--digest-file") + 1]
        self.assertEqual(os.path.basename(path), "table4_default")
        self.assertEqual(os.path.basename(os.path.dirname(path)), run.code_digest())
        # The record does not depend on the seed or on tracing.
        other = run.harness_args("perfbench", "table4_default", 9, 30, 1)
        self.assertEqual(path, other[other.index("--digest-file") + 1])


if __name__ == "__main__":
    unittest.main()
