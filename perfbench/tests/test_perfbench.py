"""Tests of the benchmark's own arithmetic and of its output contract.

Run from the repository root::

    python -m pytest perfbench/tests -q

The last two classes run the benchmark for real (about 20 s).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import batch, check, loadgen, names, serve  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


class FakeClock:
    """A clock that only moves when the code under test sleeps or sends."""

    def __init__(self, service_s: float) -> None:
        self.now = 100.0
        self.service_s = service_s

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def send(self, index: int):
        self.now += self.service_s
        return 200, b"ok"


def _sample(index, due, sent, done, status=200):
    return loadgen.Sample(index, due, sent, done, status, b"")


class ScheduleTest(unittest.TestCase):
    def test_due_times_are_evenly_spaced_from_start(self):
        self.assertEqual(loadgen.due_times(10.0, 4.0, 5),
                         [10.0, 10.25, 10.5, 10.75, 11.0])

    def test_rate_must_be_positive(self):
        with self.assertRaises(ValueError):
            loadgen.due_times(0.0, 0.0, 3)

    def test_fast_server_keeps_the_schedule(self):
        fake = FakeClock(service_s=0.01)
        samples = loadgen.run_open_loop(fake.send, rate=10.0, count=4,
                                        connections=1, clock=fake.clock,
                                        sleep=fake.sleep)
        self.assertEqual([s.index for s in samples], [0, 1, 2, 3])
        for sample in samples:
            self.assertAlmostEqual(sample.late_s, 0.0)
            self.assertAlmostEqual(sample.latency_s, 0.01)
        self.assertAlmostEqual(samples[3].due - samples[0].due, 0.3)

    def test_slow_server_makes_later_requests_late(self):
        # 0.25 s per request against a 0.1 s interval: request i is sent
        # 0.15 * i late and waits that long plus its own service time.
        fake = FakeClock(service_s=0.25)
        samples = loadgen.run_open_loop(fake.send, rate=10.0, count=4,
                                        connections=1, clock=fake.clock,
                                        sleep=fake.sleep)
        for index, sample in enumerate(samples):
            self.assertAlmostEqual(sample.late_s, 0.15 * index)
            self.assertAlmostEqual(sample.latency_s, 0.15 * index + 0.25)

    def test_transport_error_is_status_zero(self):
        def refuse(index):
            raise ConnectionRefusedError()

        samples = loadgen.run_open_loop(refuse, rate=1000.0, count=3)
        self.assertEqual([s.status for s in samples], [0, 0, 0])

    def test_lateness_is_never_negative(self):
        self.assertEqual(_sample(0, due=5.0, sent=4.9, done=5.1).late_s, 0.0)

    def test_growing_backlog_is_detected(self):
        samples = [_sample(i, due=i * 0.01, sent=i * 0.01 + i * 0.004,
                           done=i * 0.01 + i * 0.004 + 0.002)
                   for i in range(100)]
        report = loadgen.step_report(100.0, samples, lambda s: True,
                                     limit_ms=50.0)
        self.assertTrue(report.backlog_grew)
        self.assertFalse(report.meets(50.0))

    def test_steady_step_meets_its_limit(self):
        samples = [_sample(i, due=i * 0.01, sent=i * 0.01,
                           done=i * 0.01 + 0.002) for i in range(100)]
        report = loadgen.step_report(100.0, samples, lambda s: True,
                                     limit_ms=50.0)
        self.assertFalse(report.backlog_grew)
        self.assertAlmostEqual(report.p50_ms, 2.0)
        self.assertAlmostEqual(report.late_max_ms, 0.0)
        self.assertTrue(report.meets(50.0))


class PercentileRuleTest(unittest.TestCase):
    def test_at_least_ten_samples_beyond_the_reported_percentile(self):
        for count in range(20, 5_001, 7):
            for ceiling in (loadgen.TAIL_CEILING, 0.99):
                fraction = loadgen.tail_fraction(count, ceiling)
                position = fraction * (count - 1)
                beyond = count - 1 - int(position)
                self.assertGreaterEqual(
                    beyond, loadgen.TAIL_SAMPLES_BEYOND,
                    f"{count} samples, p{fraction * 100}")

    def test_capped_at_the_ceiling_and_lowered_for_short_steps(self):
        self.assertEqual(loadgen.tail_fraction(1_000), loadgen.TAIL_CEILING)
        self.assertAlmostEqual(loadgen.tail_fraction(50), 0.8)
        self.assertEqual(loadgen.tail_fraction(100_000, 0.99), 0.99)
        self.assertAlmostEqual(loadgen.tail_fraction(500, 0.99), 0.98)

    def test_too_few_samples_report_the_median(self):
        self.assertEqual(loadgen.tail_fraction(8), 0.5)
        self.assertEqual(loadgen.tail_fraction(20), 0.5)

    def test_percentile_interpolates(self):
        self.assertEqual(loadgen.percentile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)
        self.assertEqual(loadgen.percentile([1.0], 0.99), 1.0)

    def test_failed_requests_count_as_missing_the_limit(self):
        samples = [_sample(i, due=0.0, sent=0.0, done=0.001,
                           status=200 if i % 10 else 500)
                   for i in range(100)]
        report = loadgen.step_report(
            100.0, samples, lambda s: s.status == 200, limit_ms=50.0)
        self.assertEqual(report.failed, 10)
        self.assertEqual(report.tail_ms, float("inf"))
        self.assertFalse(report.meets(50.0))


class NominalWindowTest(unittest.TestCase):
    def test_median_window_is_reported(self):
        self.assertEqual(serve.nominal_p50([3.4, 2.9, 5.1, 3.0, 3.1]), 3.1)

    def test_a_slow_spell_over_some_windows_does_not_move_it(self):
        # Slow for 4 of 9 windows, as when a run meets a slow spell of
        # the host; a program change would move every window.
        windows = [6.0, 9.0, 2.0, 2.1, 7.0, 2.0, 2.1, 6.5, 2.0]
        self.assertEqual(serve.nominal_p50(windows), 2.1)


class MaxRateTest(unittest.TestCase):
    @staticmethod
    def _step(rate, tail_ms, failed=0, backlog=False):
        return loadgen.StepReport(rate, 100, failed, 1.0, tail_ms, 90.0,
                                  tail_ms, 0.1, 0.1, rate, backlog)

    def test_crossing_is_interpolated_on_log_latency(self):
        steps = [self._step(100, 5.0), self._step(200, 10.0),
                 self._step(400, 40.0)]
        # log(20/10) / log(40/10) = 0.5 of the way from 200 to 400.
        self.assertAlmostEqual(serve.max_sustained_rate(steps, 20.0), 300.0)

    def test_failures_stop_at_the_last_passing_rate(self):
        steps = [self._step(100, 5.0), self._step(200, 10.0, failed=1)]
        self.assertEqual(serve.max_sustained_rate(steps, 20.0), 100)

    def test_backlog_alone_interpolates_to_the_limit_crossing(self):
        steps = [self._step(100, 10.0), self._step(200, 15.0, backlog=True)]
        # The backlog step's tail is below the limit; it counts as at it.
        self.assertAlmostEqual(serve.max_sustained_rate(steps, 20.0), 200.0)
        steps = [self._step(100, 10.0), self._step(200, 40.0, backlog=True)]
        self.assertAlmostEqual(serve.max_sustained_rate(steps, 20.0), 150.0)

    def test_every_step_passing_reports_the_top_rate(self):
        steps = [self._step(100, 5.0), self._step(200, 6.0)]
        self.assertEqual(serve.max_sustained_rate(steps, 20.0), 200)

    def test_no_passing_step_scales_the_lowest_rate(self):
        steps = [self._step(100, 40.0), self._step(200, 80.0)]
        self.assertAlmostEqual(serve.max_sustained_rate(steps, 20.0), 50.0)


class WallClockStripTest(unittest.TestCase):
    def test_only_elapsed_s_is_removed(self):
        payload = {"elapsed_s": 1.234, "digest": "ab", "totals": {"x": 1}}
        self.assertEqual(check.strip_wall_clock(payload),
                         {"digest": "ab", "totals": {"x": 1}})
        self.assertIn("elapsed_s", payload)   # the input is not mutated

    def test_outputs_differing_only_in_elapsed_s_compare_equal(self):
        first = {"elapsed_s": 1.2, "policies": [{"p99_ns": 5.0}]}
        second = {"policies": [{"p99_ns": 5.0}], "elapsed_s": 1.9}
        third = {"elapsed_s": 1.2, "policies": [{"p99_ns": 5.5}]}
        canon = [check.canonical(check.strip_wall_clock(p))
                 for p in (first, second, third)]
        self.assertEqual(canon[0], canon[1])
        self.assertNotEqual(canon[0], canon[2])


class NamesTest(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON, encoding="utf-8") as handle:
            self.spec = json.load(handle)

    def test_every_name_and_unit_uses_the_allowed_characters(self):
        listed = self.spec["end_to_end"] + self.spec["per_layer"]
        for entry in listed:
            self.assertRegex(entry["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
            self.assertTrue(names.NAME_PATTERN.fullmatch(entry["name"]))
            self.assertTrue(names.UNIT_PATTERN.fullmatch(entry["unit"]))
        for workload in self.spec["workloads"]:
            self.assertTrue(names.NAME_PATTERN.fullmatch(workload["name"]))
        every = [entry["name"] for entry in listed]
        self.assertEqual(len(every), len(set(every)))

    def test_benchmark_json_lists_exactly_what_the_code_reports(self):
        self.assertEqual(
            {e["name"]: e["unit"] for e in self.spec["end_to_end"]},
            names.END_TO_END)
        self.assertEqual(
            {e["name"]: e["unit"] for e in self.spec["per_layer"]},
            names.PER_LAYER)

    def test_metric_builders_emit_every_end_to_end_name(self):
        served = serve.metrics([1.0, 1.1, 1.2], [4.0, 3.0, 5.0], 50.0)
        batched = batch.metrics([0.6, 0.7, 0.8], [2.0, 2.1, 2.2],
                                [100.0, 120.0, 110.0])
        for built in (served, batched):
            self.assertEqual({k: u for k, (_, u) in built.items()},
                             names.END_TO_END)
        self.assertEqual(served["latency_p50_ms"][0], 4.0)
        self.assertAlmostEqual(served["setup_s"][0], 1.1)
        self.assertAlmostEqual(batched["latency_p50_ms"][0], 2100.0)
        self.assertEqual(batched["peak_rss_mb"][0], 120.0)


def _run(cwd, *args, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)


class EmittedNamesTest(unittest.TestCase):
    """Every name in BENCHMARK.json appears in a real run's output."""

    def _emitted(self, workload, trace):
        proc = _run(ROOT, "--workload", workload, "--seed", "7",
                    "--seconds", "2", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_untraced_and_traced_runs_emit_every_listed_name(self):
        with open(BENCHMARK_JSON, encoding="utf-8") as handle:
            spec = json.load(handle)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            emitted = self._emitted("serve-hit", trace)
            for entry in spec[key]:
                self.assertIn(entry["name"], emitted)
                self.assertEqual(emitted[entry["name"]]["unit"],
                                 entry["unit"])
                self.assertIsInstance(emitted[entry["name"]]["value"],
                                      (int, float))


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_printing_a_result_when_the_program_is_absent(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(BENCHMARK_JSON, bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(bare, "--workload", "serve-hit", "--seed", "1",
                        "--seconds", "1", "--trace", "0", timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
