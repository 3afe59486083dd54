"""Tests of the benchmark's statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import stats  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


class TailTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        value, pct = stats.tail(list(range(1, 101)))
        self.assertEqual(value, 90)  # 91..100 lie beyond it
        self.assertAlmostEqual(pct, 100.0 * 89 / 99)

    def test_order_of_input_does_not_matter(self):
        samples = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12]
        self.assertEqual(stats.tail(samples), stats.tail(sorted(samples)))
        self.assertEqual(stats.tail(samples)[0], 2)

    def test_eleven_samples_give_the_minimum(self):
        self.assertEqual(stats.tail(list(range(11))), (0, 0.0))

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, None))

    def test_ties_take_their_sorted_position(self):
        value, _ = stats.tail([1.0] * 5 + [2.0] * 20)
        self.assertEqual(value, 2.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class SpreadTest(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # quantiles(n=4) of 1..9 (exclusive method): 2.5, 5, 7.5.
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 5.0 / 5.0)

    def test_constant_runs_have_no_spread(self):
        self.assertEqual(stats.spread([0.25] * 10), 0.0)


class CompareTest(unittest.TestCase):
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_unchanged_is_ok(self):
        verdict, d = stats.compare(self.base, list(self.base), "lower", 0.1)
        self.assertEqual(verdict, "ok")
        self.assertAlmostEqual(d["worse_by"], 0.0)

    def test_slower_beyond_bound_regresses(self):
        verdict, d = stats.compare(self.base, [v * 1.2 for v in self.base], "lower", 0.1)
        self.assertEqual(verdict, "regressed")
        self.assertAlmostEqual(d["worse_by"], 0.2)

    def test_slower_within_bound_is_ok(self):
        verdict, _ = stats.compare(self.base, [v * 1.05 for v in self.base], "lower", 0.1)
        self.assertEqual(verdict, "ok")

    def test_direction_follows_better(self):
        # A rate that drops is worse; one that rises is not.
        self.assertEqual(stats.compare(self.base, [v * 0.8 for v in self.base], "higher", 0.1)[0],
                         "regressed")
        self.assertEqual(stats.compare(self.base, [v * 1.5 for v in self.base], "higher", 0.1)[0],
                         "ok")

    def test_wide_spread_is_unresolved(self):
        noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
        verdict, d = stats.compare(self.base, noisy, "lower", 0.1)
        self.assertEqual(verdict, "unresolved")
        self.assertGreater(d["new_spread"], 0.1)

    def test_wide_spread_but_every_run_better_is_ok(self):
        noisy = [0.3, 0.5, 0.35, 0.45, 0.4, 0.4, 0.6, 0.3, 0.5, 0.4]
        self.assertEqual(stats.compare(self.base, noisy, "lower", 0.1)[0], "ok")


class MetricNamesTest(unittest.TestCase):
    """The metrics run.py prints are exactly the ones BENCHMARK.json lists."""

    def setUp(self):
        with open(BENCHMARK) as f:
            self.spec = json.load(f)

    def test_end_to_end(self):
        runs = [{"wall_s": 2.0, "cpu_s": 3.0, "jobs": 4.0}] * 4
        timed = [{"setup_s": s, "runs": runs, "job_latency_s": [0.25] * 16,
                  "values": {"peak_rss_mib": m}}
                 for s, m in ((0.5, 10.0), (0.4, 12.0), (0.6, 11.0))]
        count = {"values": {"msgs_per_run": 100.0}}
        fidelity = {"values": {"fig9_ratio": 1.125}}
        got = stats.end_to_end(timed, count, fidelity)
        self.assertEqual(set(got), {m["name"] for m in self.spec["end_to_end"]})
        for m in self.spec["end_to_end"]:
            self.assertEqual(got[m["name"]][1], m["unit"], m["name"])
        self.assertAlmostEqual(got["fig9_ratio_err"][0], 0.015)
        self.assertEqual(got["setup_s"][0], 0.5)
        self.assertEqual(got["peak_rss_mib"][0], 11.0)
        self.assertEqual(got["jobs_per_s"][0], 2.0)
        self.assertEqual(got["sim_msgs_per_s"][0], 50.0)
        self.assertEqual(got["run_wall_tail_s"][0], 2.0)  # 12 runs over 3 processes
        self.assertEqual(stats.job_latency_p99(timed), 0.25)

    def test_per_layer(self):
        layers = {k: 1.0 for k in ("launch_ns", "allreduce_ns", "plan_create_ns",
                                   "halo_start_ns", "halo_complete_ns", "ocl_enqueue_ns",
                                   "ocl_finish_ns", "rt_finish_ns", "svc_submit_ns",
                                   "svc_queue_delay_s", "svc_run_wall_s", "svc_rejected")}
        values = {"vt.spans": 3, "trace.overhead_s": 0.01}
        for r in range(4):
            for part in ("compute", "h2d", "d2h", "wire", "wait", "exposed_comm"):
                values["vt.r%d.%s_us" % (r, part)] = 1.0
        counters = {"progress.coalesce.flush.tick": 9, "progress.coalesce.flushes": 10,
                    "xfer.select.memo_hit": 3, "xfer.select.heuristic.pinned.sz12.x": 1}
        traced = {"layers": layers, "counters": counters, "values": values,
                  "makespans": 4, "makespans_agree": 3}
        got = stats.per_layer(traced)
        self.assertEqual(set(got), {m["name"] for m in self.spec["per_layer"]})
        for m in self.spec["per_layer"]:
            self.assertEqual(got[m["name"]][1], m["unit"], m["name"])
        self.assertAlmostEqual(got["progress.tick_flush_ratio"][0], 0.9)
        self.assertAlmostEqual(got["xfer.select.memo_hit_ratio"][0], 0.75)
        self.assertAlmostEqual(got["vt.makespan_agree_ratio"][0], 0.75)
        self.assertEqual(got["xfer.pool.hit_ratio"][0], 0.0)  # no acquires: no division


if __name__ == "__main__":
    unittest.main()
