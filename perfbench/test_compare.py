#!/usr/bin/env python3
"""Tests for compare.py on the fixture result sets in fixtures/.

Run from the repository root:  python3 -m unittest perfbench/test_compare.py
"""
import io
import json
import os
import sys
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

FIX = os.path.join(HERE, "fixtures")


def verdicts(new_set):
    with open(os.path.join(FIX, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare.compare(os.path.join(FIX, "base"),
                           os.path.join(FIX, new_set), spec)
    return {metric: v for _, metric, _, _, v, _ in rows}


class CompareTest(unittest.TestCase):
    def test_loads_every_run_by_workload(self):
        runs = compare.load_runs(os.path.join(FIX, "base"))
        self.assertEqual(list(runs), ["svc_read_zipf"])
        self.assertEqual(len(runs["svc_read_zipf"]["throughput_kops"]), 5)

    def test_summary_uses_quartiles(self):
        med, q1, q3 = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))

    def test_reads_printed_only_metrics(self):
        runs = compare.load_runs(os.path.join(FIX, "base"))
        self.assertEqual(runs["svc_read_zipf"]["get_p99_us"][0], 50.0)

    def test_same_code_is_unresolved(self):
        v = verdicts("base")
        self.assertEqual(set(v.values()), {"unresolved"})

    def test_slower_throughput_is_worse(self):
        v = verdicts("worse")
        self.assertEqual(v["throughput_kops"], "worse")
        self.assertEqual(v["get_p50_us"], "unresolved")
        # Per-layer: no bound, but every run reads worse.
        self.assertEqual(v["server.queue_wait_us_p50"], "worse")

    def test_lower_latency_is_better(self):
        v = verdicts("better")
        self.assertEqual(v["get_p50_us"], "better")
        # Printed-only metric: unbounded, lower is better, every run beats.
        self.assertEqual(v["get_p99_us"], "better")
        self.assertEqual(v["throughput_kops"], "unresolved")
        self.assertEqual(v["server.queue_wait_us_p50"], "unresolved")

    def test_spread_beyond_bound_is_unresolved(self):
        v = verdicts("noisy")
        self.assertEqual(v["throughput_kops"], "unresolved")

    def test_exit_code_flags_regressions(self):
        bench = os.path.join(FIX, "BENCHMARK.json")
        with redirect_stdout(io.StringIO()) as out:
            rc_worse = compare.main([os.path.join(FIX, "base"),
                                     os.path.join(FIX, "worse"),
                                     "--benchmark", bench])
            rc_better = compare.main([os.path.join(FIX, "base"),
                                      os.path.join(FIX, "better"),
                                      "--benchmark", bench])
        self.assertEqual((rc_worse, rc_better), (1, 0))
        self.assertIn("throughput_kops", out.getvalue())


if __name__ == "__main__":
    unittest.main()
