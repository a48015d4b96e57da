"""Unit tests for the benchmark's bookkeeping; they need no ``repro`` import.

Run from the repository root with ``python3 -m pytest e2ebench`` or
``python3 -m unittest discover e2ebench``.
"""

from __future__ import annotations

import json
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from launch import PER_LAYER_UNITS  # noqa: E402
from ledger import (  # noqa: E402
    GAUGE_NOMINAL_S,
    Gauge,
    Ledger,
    Tally,
    median,
    percentile,
    tail_percentile,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def test_children_and_grandchildren_subtracted_once(self):
        clock = FakeClock()
        ledger = Ledger(clock=clock)
        ledger.begin("figure")       # figure: 1 + 1 = 2 self
        clock.advance(1)
        ledger.begin("cache")        # cache: 2 + 1 = 3 self
        clock.advance(2)
        ledger.begin("serialize")    # serialize: 4 self (grandchild)
        clock.advance(4)
        ledger.end()
        clock.advance(1)
        ledger.end()
        ledger.begin("simulate")     # simulate: 5 self
        clock.advance(5)
        ledger.end()
        clock.advance(1)
        ledger.end()
        snap = ledger.to_dict()
        self.assertEqual(snap["self_s"], {"figure": 2, "cache": 3, "serialize": 4, "simulate": 5})
        self.assertEqual(snap["root_s"], 14)
        self.assertEqual(sum(snap["self_s"].values()), snap["root_s"])

    def test_recursive_span_of_one_name_is_not_double_counted(self):
        clock = FakeClock()
        ledger = Ledger(clock=clock)
        with ledger.span("walk"):
            clock.advance(1)
            with ledger.span("walk"):
                clock.advance(2)
        snap = ledger.to_dict()
        self.assertEqual(snap["self_s"]["walk"], 3)
        self.assertEqual(snap["calls"]["walk"], 2)
        self.assertEqual(snap["root_s"], 3)

    def test_span_closes_on_exception(self):
        clock = FakeClock()
        ledger = Ledger(clock=clock)
        with self.assertRaises(ValueError):
            with ledger.span("outer"):
                with ledger.span("inner"):
                    clock.advance(1)
                    raise ValueError
        self.assertEqual(ledger.to_dict()["self_s"], {"outer": 0, "inner": 1})

    def test_threads_keep_separate_stacks(self):
        ledger = Ledger()
        barrier = threading.Barrier(4)

        def work():
            with ledger.span("outer"):
                barrier.wait(timeout=10)
                with ledger.span("inner"):
                    barrier.wait(timeout=10)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            self.assertFalse(thread.is_alive())
        snap = ledger.to_dict()
        self.assertEqual(snap["calls"], {"outer": 4, "inner": 4})
        # Every root span's time is split exactly between the two names.
        self.assertAlmostEqual(sum(snap["self_s"].values()), snap["root_s"], places=9)

    def test_merge_sums_snapshots(self):
        a = {"self_s": {"x": 1.0}, "calls": {"x": 1}, "counters": {"c": 2}, "root_s": 1.0}
        b = {"self_s": {"x": 2.0, "y": 1.0}, "calls": {"x": 2, "y": 1},
             "counters": {"c": 3}, "root_s": 3.0}
        merged = Ledger.merge([a, b])
        self.assertEqual(merged["self_s"], {"x": 3.0, "y": 1.0})
        self.assertEqual(merged["calls"], {"x": 3, "y": 1})
        self.assertEqual(merged["counters"], {"c": 5})
        self.assertEqual(merged["root_s"], 4.0)


class TailTest(unittest.TestCase):
    def test_too_few_samples_fall_back_to_median(self):
        values = [float(v) for v in range(1, 11)]  # 10 samples: none beyond p50 qualifies
        self.assertEqual(tail_percentile(values), (50.0, 5.5, 10))

    def test_ten_beyond_is_enough(self):
        values = [float(v) for v in range(1, 101)]  # p90 = 90, ten samples beyond it
        self.assertEqual(tail_percentile(values), (90.0, 90.0, 100))

    def test_nine_beyond_is_not(self):
        values = [float(v) for v in range(1, 100)]  # 99 samples: p90 rank 90, 9 beyond
        pct, value, n = tail_percentile(values)
        self.assertEqual((pct, n), (50.0, 99))
        self.assertEqual(value, 50.0)

    def test_highest_qualifying_percentile_wins(self):
        values = [float(v) for v in range(1, 1001)]
        self.assertEqual(tail_percentile(values), (99.0, 990.0, 1000))
        values = [float(v) for v in range(1, 10001)]
        self.assertEqual(tail_percentile(values)[0], 99.9)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(percentile([1.0, 2.0, 3.0, 4.0], 95), 4.0)
        self.assertEqual(median([1.0, 2.0, 3.0, 4.0]), 2.5)


class TallyTest(unittest.TestCase):
    def test_concurrent_tallies_lose_no_update(self):
        tally = Tally()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(index):
                for i in range(2000):
                    if (i + index) % 4 == 0:
                        tally.fail(f"op {i}")
                    else:
                        tally.ok()

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                self.assertFalse(thread.is_alive())
        finally:
            sys.setswitchinterval(switch)
        self.assertEqual(tally.attempted, 16000)
        self.assertEqual(tally.failed, 4000)
        self.assertEqual(len(tally.reasons), 20)

    def test_check_counts_and_returns_condition(self):
        tally = Tally()
        self.assertTrue(tally.check(True, "fine"))
        self.assertFalse(tally.check(False, "wrong output"))
        self.assertEqual((tally.attempted, tally.failed, tally.reasons), (2, 1, ["wrong output"]))


class GaugeTest(unittest.TestCase):
    def test_a_sample_is_scaled_by_the_jobs_around_it(self):
        clock = FakeClock()
        durations = iter([1, 1, 2, 2, 2, 2, 3, 3])
        gauge = Gauge(2, job=lambda: clock.advance(next(durations) * GAUGE_NOMINAL_S),
                      clock=clock)
        gauge.tick(4)
        mark = gauge.mark()  # a sample taken between the fourth and fifth job
        gauge.tick(4)
        self.assertEqual(mark, 4)
        # The median of jobs 3-6 (2, 2, 2, 2): a host at half the
        # nominal speed halves the sample.
        self.assertAlmostEqual(gauge.scale(mark), 0.5)
        # Near the ends the window is clipped to the jobs that ran.
        self.assertAlmostEqual(gauge.scale(0), 1.0)
        self.assertAlmostEqual(gauge.factor(0, 8), 0.5)

    def test_no_samples_is_an_error_not_a_guess(self):
        with self.assertRaises(ValueError):
            Gauge(5).factor(0, 10)


class RecordedCountsTest(unittest.TestCase):
    def test_a_seed_without_counts_is_noted_not_counted(self):
        tally, notes = Tally(), []
        run.check_recorded(tally, notes, None, "reference", {"cycles": 1})
        self.assertEqual((tally.attempted, tally.failed), (0, 0))
        self.assertEqual(len(notes), 1)

    def test_a_count_that_moved_is_a_failed_operation(self):
        tally, notes = Tally(), []
        run.check_recorded(tally, notes, {"cycles": 1}, "reference", {"cycles": 1})
        run.check_recorded(tally, notes, {"cycles": 1}, "reference", {"cycles": 2})
        self.assertEqual((tally.attempted, tally.failed, notes), (2, 1, []))


class ServiceMixTest(unittest.TestCase):
    def test_unit_holds_the_sized_mix_and_opens_with_a_fresh_spec(self):
        for seed in (1, 2):
            plan = run.mix_plan(seed, unit=3)
            kinds = [kind for kind, _ in plan]
            self.assertEqual(kinds[0], "fresh")
            self.assertEqual(kinds.count("repeat"), run.REPEATS_PER_UNIT)
            self.assertEqual(kinds.count("dup"), run.FRESH_PER_UNIT // run.DUP_EVERY)
            specs = sorted(arg for kind, arg in plan if kind != "repeat")
            self.assertEqual(specs, [run.spec_index(3, i) for i in range(run.FRESH_PER_UNIT)])
            self.assertEqual(plan, run.mix_plan(seed, unit=3))

    def test_a_unit_of_repeats_has_a_p95_tail(self):
        self.assertEqual(tail_percentile([0.0] * run.REPEATS_PER_UNIT)[0], 95.0)
        self.assertEqual(tail_percentile([0.0] * (run.REPEATS_PER_UNIT - 1))[0], 90.0)

    def test_units_per_run_depend_on_seconds_only(self):
        self.assertEqual(run.unit_count(25, 5.0), 5)
        self.assertEqual(run.unit_count(1, 5.0), 2)


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_list_matches_the_launcher_table(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(listed, PER_LAYER_UNITS)

    def test_layer_metrics_report_every_per_layer_metric(self):
        self.assertEqual(set(run.layer_metrics([])), set(PER_LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
