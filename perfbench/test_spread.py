#!/usr/bin/env python3
"""Tests of spread.py: quartile spread, summaries, and host refusal.

    python3 perfbench/test_spread.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spread  # noqa: E402

HOST = {"nproc": 2, "cpu": "Some CPU", "rustc": "rustc 1.95.0", "git_rev": "abc", "profile": "release"}
BENCH = {"end_to_end": [
    {"name": "work_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "robot_rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def result(work_s, rate):
    return {"correct": True, "attempted": 5, "failed": 0, "metrics": {
        "work_s": {"value": work_s, "unit": "s"},
        "robot_rounds_per_s": {"value": rate, "unit": "1/s"}}}


def summary(host, work_values, rate=1e6):
    runs = [("gather-fsync", i, host, result(v, rate)) for i, v in enumerate(work_values)]
    return spread.summarise(runs)


class SpreadTest(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        s = spread.spread_of([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(s["median"], 3.0)
        self.assertAlmostEqual(s["q1"], 1.5)
        self.assertAlmostEqual(s["q3"], 4.5)
        self.assertAlmostEqual(s["spread"], 1.0)

    def test_parse_output_reads_host_and_last_line(self):
        out = 'job 1 done\n{"host": {"nproc": 2}}\n{"correct": true, "attempted": 1, ' \
              '"failed": 0, "metrics": {}}\n'
        host, res = spread.parse_output(out)
        self.assertEqual(host, {"nproc": 2})
        self.assertTrue(res["correct"])
        with self.assertRaises(ValueError):
            spread.parse_output('{"correct": true}\n')

    def test_seed_lists(self):
        self.assertEqual(spread.parse_seeds("1-4"), [1, 2, 3, 4])
        self.assertEqual(spread.parse_seeds("3,9"), [3, 9])

    def test_summary_is_stamped_with_the_host(self):
        s = summary(HOST, [10.0, 11.0, 12.0])
        self.assertEqual(s["host"], HOST)
        self.assertEqual(s["workloads"]["gather-fsync"]["metrics"]["work_s"]["median"], 11.0)

    def test_runs_from_two_hosts_do_not_make_one_summary(self):
        runs = [("gather-fsync", 1, HOST, result(1.0, 1.0)),
                ("gather-fsync", 2, dict(HOST, nproc=1), result(1.0, 1.0))]
        with self.assertRaises(ValueError):
            spread.summarise(runs)

    def test_compare_refuses_a_different_core_count_and_says_why(self):
        base = summary(dict(HOST, nproc=1), [10.0])
        new = summary(HOST, [10.0])
        with self.assertRaises(ValueError) as err:
            spread.compare(base, new, BENCH)
        self.assertIn("nproc 1 vs 2", str(err.exception))

    def test_compare_refuses_another_cpu_or_a_missing_host(self):
        base = summary(dict(HOST, cpu="Other CPU"), [10.0])
        with self.assertRaises(ValueError) as err:
            spread.compare(base, summary(HOST, [10.0]), BENCH)
        self.assertIn("cpu", str(err.exception))
        base["host"] = None
        with self.assertRaises(ValueError):
            spread.compare(base, summary(HOST, [10.0]), BENCH)

    def test_compare_ignores_the_git_revision_and_flags_regressions(self):
        base = summary(HOST, [10.0, 10.0, 10.0])
        same = summary(dict(HOST, git_rev="def"), [10.5, 10.5, 10.5])
        lines, regressed = spread.compare(base, same, BENCH)
        self.assertFalse(regressed)
        self.assertEqual(len(lines), 2)
        slower = summary(HOST, [12.0, 12.0, 12.0], rate=0.8e6)
        lines, regressed = spread.compare(base, slower, BENCH)
        self.assertTrue(regressed)
        self.assertEqual(sum("REGRESSION" in l for l in lines), 2)


if __name__ == "__main__":
    unittest.main()
