"""Self-profiler: cumulative/self accounting and the two-ledger rule.

The profiler measures the simulator *process* (wall-clock), never the
modelled hardware (sim-time); a fake clock makes its arithmetic exact.
"""

import pytest

from repro.obs.profiler import (
    SelfProfiler,
    active_profiler,
    phase,
)


class FakeClock:
    """A controllable perf_counter stand-in."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def profiler(clock):
    return SelfProfiler(clock=clock)


class TestAccounting:
    def test_flat_phase(self, profiler, clock):
        with profiler.phase("engine.run"):
            clock.advance(2.0)
        stats = profiler.stats("engine.run")
        assert stats.calls == 1
        assert stats.cumulative_s == pytest.approx(2.0)
        assert stats.self_s == pytest.approx(2.0)

    def test_nested_child_time_subtracted_from_self(self, profiler, clock):
        with profiler.phase("outer"):
            clock.advance(1.0)
            with profiler.phase("inner"):
                clock.advance(3.0)
            clock.advance(1.0)
        outer = profiler.stats("outer")
        inner = profiler.stats("inner")
        assert outer.cumulative_s == pytest.approx(5.0)
        assert outer.self_s == pytest.approx(2.0)
        assert inner.cumulative_s == pytest.approx(3.0)
        assert inner.self_s == pytest.approx(3.0)

    def test_self_times_sum_to_total(self, profiler, clock):
        with profiler.phase("a"):
            clock.advance(1.0)
            with profiler.phase("b"):
                clock.advance(2.0)
        with profiler.phase("c"):
            clock.advance(4.0)
        assert profiler.total_s == pytest.approx(7.0)

    def test_recursion_counts_cumulative_once(self, profiler, clock):
        with profiler.phase("recurse"):
            clock.advance(1.0)
            with profiler.phase("recurse"):
                clock.advance(2.0)
        stats = profiler.stats("recurse")
        assert stats.calls == 2
        # Only the outermost activation adds to cumulative ...
        assert stats.cumulative_s == pytest.approx(3.0)
        # ... while self-time still sums to the real wall-clock.
        assert stats.self_s == pytest.approx(3.0)

    def test_out_of_order_exit_raises(self, profiler):
        outer = profiler.phase("outer")
        inner = profiler.phase("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)

    def test_table_ranked_by_cumulative_then_name(self, profiler, clock):
        for name, seconds in (("slow", 3.0), ("fast", 1.0), ("mid", 2.0)):
            with profiler.phase(name):
                clock.advance(seconds)
        assert [stats.name for stats in profiler.table()] == [
            "slow", "mid", "fast"]
        assert [stats.name for stats in profiler.table(top=2)] == [
            "slow", "mid"]

    def test_to_json_and_reset(self, profiler, clock):
        with profiler.phase("a"):
            clock.advance(1.0)
        payload = profiler.to_json()
        assert payload["a"]["calls"] == 1
        assert payload["a"]["self_s"] == pytest.approx(1.0)
        profiler.reset()
        assert profiler.to_json() == {}

    def test_reset_with_open_phase_rejected(self, profiler):
        frame = profiler.phase("open")
        frame.__enter__()
        with pytest.raises(RuntimeError):
            profiler.reset()
        frame.__exit__(None, None, None)


class TestActivation:
    def test_module_phase_is_noop_without_profiler(self):
        assert active_profiler() is None
        with phase("anything"):
            pass  # must not raise, must not record anywhere

    def test_module_phase_reports_to_active_profiler(self, clock):
        profiler = SelfProfiler(clock=clock)
        with profiler:
            assert active_profiler() is profiler
            with phase("hot"):
                clock.advance(1.5)
        assert active_profiler() is None
        assert profiler.stats("hot").cumulative_s == pytest.approx(1.5)

    def test_second_activation_rejected(self):
        with SelfProfiler():
            with pytest.raises(RuntimeError):
                SelfProfiler().activate()

    def test_instrumented_phases_show_up_end_to_end(self):
        from repro.runtime import SimContext
        from repro.runtime.fleet import FleetSimulation, FleetSpec
        from repro.runtime.sweep import SweepRunner
        from repro.scenario import Scenario, WorkloadSpec

        scenario = Scenario(
            kind="sweep", apps=("sec-gateway",), devices=("device-a",),
            workload=WorkloadSpec(packet_sizes=(64,), packets_per_point=50))
        profiler = SelfProfiler()
        with profiler:
            SweepRunner(scenario, use_cache=False).run()   # fused planner
            SweepRunner(scenario, use_cache=False,
                        fuse=False).run()                  # per-point path
            FleetSimulation(FleetSpec(flow_count=5_000, device_count=16),
                            context=SimContext(name="profiled")).run()
        names = {stats.name for stats in profiler.table(top=0)}
        assert {"sweep.fused", "sweep.point", "vector.kernel",
                "fleet.policy"} <= names

    def test_profiler_never_touches_sim_time(self):
        from repro.runtime import SimContext
        from repro.runtime.fleet import FleetSimulation, FleetSpec

        spec = FleetSpec(flow_count=5_000, device_count=16)
        bare = FleetSimulation(spec, context=SimContext(name="bare")).run()
        with SelfProfiler():
            profiled = FleetSimulation(
                spec, context=SimContext(name="prof")).run()
        assert [policy.p99_ns for policy in bare.policies] == [
            policy.p99_ns for policy in profiled.policies]
