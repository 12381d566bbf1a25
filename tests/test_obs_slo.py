"""SLO monitor: spec parsing, wildcard matching, and violation plumbing.

A violation must surface three ways at once: in the report section, as
an ``slo.violation`` instant on the trace, and as exit code 4 from the
CLI (the CLI path is covered in ``test_cli.py``).
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.slo import (
    SLO_EXIT_CODE,
    SloMonitor,
    SloSpec,
    default_fleet_slos,
    load_slo_specs,
    registry_from_sweep,
)
from repro.runtime import MetricsRegistry
from repro.runtime.trace import TraceBus


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.set_gauge("fleet.round-robin.utilization_mean", 0.99)
    registry.set_gauge("fleet.least-loaded.utilization_mean", 0.60)
    registry.set_gauge("fleet.flows", 1_000)
    registry.set_gauge("fleet.round-robin.non_resident_flows", 700)
    for sample in (100_000, 200_000, 900_000):
        registry.observe("fleet.round-robin.tenant.00.latency_ps", sample)
    return registry


class TestSpecValidation:
    def test_needs_a_bound(self):
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", metric="a.b")

    def test_needs_name_and_metric(self):
        with pytest.raises(ConfigurationError):
            SloSpec(name="", metric="a.b", upper=1.0)
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", metric="", upper=1.0)

    def test_percentile_range(self):
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", metric="a.b", upper=1.0, percentile=1.5)

    def test_json_round_trip(self):
        spec = SloSpec(name="util", metric="fleet.*.utilization_mean",
                       lower=0.1, upper=0.9)
        assert SloSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            SloSpec.from_json({"name": "x", "metric": "a", "upper": 1,
                               "treshold": 2})

    def test_bound_text(self):
        spec = SloSpec(name="band", metric="m", lower=0.1, upper=0.9)
        assert spec.bound_text() == ">= 0.1 and <= 0.9"


class TestEvaluation:
    def test_wildcard_matches_every_policy(self):
        monitor = SloMonitor([SloSpec(
            name="util", metric="fleet.*.utilization_mean", upper=0.9)])
        report = monitor.evaluate(_registry())
        assert report.checked == 2
        assert [v.metric for v in report.violations] == [
            "fleet.round-robin.utilization_mean"]
        assert not report.ok and report.exit_code == SLO_EXIT_CODE

    def test_exact_path_without_wildcards(self):
        monitor = SloMonitor([SloSpec(
            name="util", metric="fleet.least-loaded.utilization_mean",
            lower=0.5)])
        report = monitor.evaluate(_registry())
        assert report.checked == 1 and report.ok and report.exit_code == 0

    def test_histogram_reads_percentile(self):
        monitor = SloMonitor([SloSpec(
            name="p99", metric="fleet.*.tenant.*.latency_ps",
            upper=500_000.0)])
        report = monitor.evaluate(_registry())
        assert len(report.violations) == 1
        assert report.violations[0].value == 900_000.0
        relaxed = SloMonitor([SloSpec(
            name="p50", metric="fleet.*.tenant.*.latency_ps",
            upper=500_000.0, percentile=0.5)])
        assert relaxed.evaluate(_registry()).ok

    def test_ratio_to_divides_by_denominator(self):
        monitor = SloMonitor([SloSpec(
            name="resident", metric="fleet.*.non_resident_flows",
            ratio_to="fleet.flows", upper=0.35)])
        report = monitor.evaluate(_registry())
        assert report.violations[0].value == pytest.approx(0.7)

    def test_empty_histogram_and_missing_path_are_skipped(self):
        registry = MetricsRegistry()
        registry.histogram("quiet.latency_ps")
        monitor = SloMonitor([
            SloSpec(name="a", metric="quiet.latency_ps", upper=1.0),
            SloSpec(name="b", metric="absent.path", upper=1.0),
        ])
        report = monitor.evaluate(registry)
        assert report.checked == 0 and report.ok

    def test_violations_emit_trace_instants(self):
        bus = TraceBus(clock_ps=lambda: 0, enabled=True)
        monitor = SloMonitor([SloSpec(
            name="util", metric="fleet.*.utilization_mean", upper=0.9)])
        monitor.evaluate(_registry(), trace=bus)
        instants = [record for record in bus.records
                    if record["name"] == "slo.violation"]
        assert len(instants) == 1
        assert instants[0]["attrs"]["slo"] == "util"
        assert instants[0]["attrs"]["metric"] == (
            "fleet.round-robin.utilization_mean")

    def test_report_format_and_json(self):
        monitor = SloMonitor([SloSpec(
            name="util", metric="fleet.*.utilization_mean", upper=0.9)])
        report = monitor.evaluate(_registry())
        text = report.format()
        assert "VIOLATION util" in text and "1 violation(s)" in text
        payload = report.to_json()
        assert payload["ok"] is False
        assert payload["violations"][0]["slo"] == "util"
        clean = SloMonitor([]).evaluate(_registry())
        assert "all objectives met" in clean.format()


class TestPersistence:
    def test_load_list_and_wrapped_object(self, tmp_path):
        specs = [{"name": "a", "metric": "m", "upper": 1.0}]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(specs), encoding="utf-8")
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"slos": specs}), encoding="utf-8")
        assert load_slo_specs(str(flat)).specs == (
            SloMonitor.load(str(wrapped)).specs)

    def test_invalid_json_is_a_configuration_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            SloMonitor.load(str(bad))

    def test_non_list_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            SloMonitor.from_json({"other": 1})


class TestFleetAndSweepIntegration:
    def test_default_fleet_slos_cover_the_fleet_registry(self):
        from repro.runtime import SimContext
        from repro.runtime.fleet import FleetSimulation, FleetSpec

        context = SimContext(name="slo-fleet")
        FleetSimulation(FleetSpec(flow_count=5_000, device_count=16),
                        context=context).run()
        report = SloMonitor(default_fleet_slos()).evaluate(context.metrics)
        # Every spec family found series to check: 3 policies x 16
        # tenants of p99 plus per-policy utilisation/overload/residency.
        assert report.checked >= 3 * 16 + 3 * 3

    def test_registry_from_sweep_exposes_gauges(self):
        from repro.runtime.sweep import SweepRunner
        from repro.scenario import Scenario, WorkloadSpec

        scenario = Scenario(
            kind="sweep", apps=("sec-gateway",), devices=("device-a",),
            workload=WorkloadSpec(packet_sizes=(64, 256),
                                  packets_per_point=50))
        result = SweepRunner(scenario, use_cache=False).run()
        registry = registry_from_sweep(result)
        paths = registry.paths()
        assert "sweep.sec-gateway.device-a.64B.throughput_gbps" in paths
        assert "sweep.sec-gateway.device-a.256B.mean_latency_ns" in paths
        floor = SloMonitor([SloSpec(
            name="throughput-floor", metric="sweep.*.throughput_gbps",
            lower=1e9)])
        report = floor.evaluate(registry)
        assert report.checked == 2
        assert len(report.violations) == 2  # Gbps values, nowhere near 1e9
