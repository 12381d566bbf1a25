"""Build farm: plans, content keys, the artifact store, determinism."""

import dataclasses
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.runtime import buildfarm
from repro.runtime.buildfarm import (
    ArtifactStore,
    BuildFarm,
    BuildPlan,
    BuildTarget,
    FARM_STEP_NAMES,
    build_one,
    fleet_build_plan,
)
from repro.runtime.context import SimContext
from repro.scenario import BuildSpec

SMALL = BuildPlan(devices=("device-a", "device-b"),
                  roles=("sec-gateway", "board-test"))
VARIANTS = BuildPlan(devices=("device-b", "device-b-rev2"),
                     roles=("sec-gateway",))


class TestPlan:
    def test_expand_is_device_major_ordered(self):
        labels = [target.label() for target in SMALL.expand()]
        assert labels == [
            "sec-gateway@device-a", "board-test@device-a",
            "sec-gateway@device-b", "board-test@device-b",
        ]
        assert len(SMALL) == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            BuildPlan(devices=(), roles=("sec-gateway",))
        with pytest.raises(ConfigurationError):
            BuildPlan(devices=("device-a",), roles=())

    def test_negative_effort_rejected(self):
        # The plan holds the scenario's build section, which owns the
        # check.
        with pytest.raises(ConfigurationError, match="effort"):
            BuildPlan(devices=("device-a",), roles=("sec-gateway",),
                      build=BuildSpec(effort=-1))

    def test_fleet_plan_covers_active_types_and_all_roles(self):
        plan = fleet_build_plan(2024)
        assert "device-b-rev2" in plan.devices      # variant names included
        assert "device-c" in plan.devices
        assert len(plan.roles) == 5
        assert len(plan) == len(plan.devices) * 5

    def test_fleet_plan_rejects_empty_year(self):
        with pytest.raises(ConfigurationError):
            fleet_build_plan(1999)


class TestArtifactStore:
    def test_memory_store_hit_and_miss_counting(self):
        store = ArtifactStore()
        assert store.lookup("k") is None
        store.store("k", {"manifest": {"x": 1}})
        assert store.lookup("k") == {"manifest": {"x": 1}}
        assert (store.hits, store.misses) == (1, 1)
        assert len(store) == 1

    def test_disk_roundtrip_is_atomic(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.store("deadbeef", {"manifest": {"x": 1}, "schema": 1})
        again = ArtifactStore(str(tmp_path))
        assert again.lookup("deadbeef")["manifest"] == {"x": 1}
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_truncated_artifact_raises_configuration_error(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.store("cafe", {"manifest": {}})
        path = tmp_path / "cafe.json"
        path.write_text(path.read_text()[:10], encoding="utf-8")
        with pytest.raises(ConfigurationError, match="cafe.json"):
            ArtifactStore(str(tmp_path)).lookup("cafe")

    def test_non_artifact_json_raises_configuration_error(self, tmp_path):
        (tmp_path / "beef.json").write_text('["not", "an", "artifact"]',
                                            encoding="utf-8")
        with pytest.raises(ConfigurationError, match="no manifest"):
            ArtifactStore(str(tmp_path)).lookup("beef")

    def test_entry_without_manifest_rejected_at_store_time(self):
        with pytest.raises(ConfigurationError):
            ArtifactStore().store("k", {"schema": 1})


class TestContentKeys:
    def test_device_variant_shares_the_base_build(self):
        report = BuildFarm(VARIANTS).run()
        first, second = report.targets
        assert first.status == "built"
        assert second.status == "shared"
        assert first.build_key == second.build_key
        assert first.manifest == second.manifest
        assert report.tailor_memo_hits >= 1

    def test_key_varies_with_role_and_effort(self):
        base = BuildFarm(BuildPlan(devices=("device-a",),
                                   roles=("sec-gateway",))).run()
        other_role = BuildFarm(BuildPlan(devices=("device-a",),
                                         roles=("board-test",))).run()
        other_effort = BuildFarm(BuildPlan(devices=("device-a",),
                                           roles=("sec-gateway",),
                                           build=BuildSpec(effort=3))).run()
        keys = {base.targets[0].build_key, other_role.targets[0].build_key,
                other_effort.targets[0].build_key}
        assert len(keys) == 3

    def test_incompatible_pairs_are_deterministic_and_uncached(self):
        plan = BuildPlan(devices=("device-c",), roles=("retrieval",))
        store = ArtifactStore()
        report = BuildFarm(plan, store=store).run()
        assert report.targets[0].status == "incompatible"
        assert "memory" in report.targets[0].error
        assert len(store) == 0

    def test_unfit_design_reported_incompatible_not_failed(self):
        # sec-gateway needs URAM device-vu125-legacy does not have.
        plan = BuildPlan(devices=("device-vu125-legacy",),
                         roles=("sec-gateway",))
        report = BuildFarm(plan).run()
        assert report.targets[0].status == "incompatible"
        assert "does not fit" in report.targets[0].error

    def test_unfit_outcome_is_memoised_across_runs(self, monkeypatch):
        # The store never caches failures, so repeat runs lean on the
        # in-process memo instead of re-executing a doomed flow.
        plan = BuildPlan(devices=("device-vu125-legacy",),
                         roles=("sec-gateway",))
        first = BuildFarm(plan).run()
        key = first.to_json()["targets"][0]["build_key"]
        assert key in buildfarm._BUILD_FAILED

        def boom(spec):
            raise AssertionError("memoised failure was re-executed")

        monkeypatch.setattr(buildfarm, "_execute_build", boom)
        again = BuildFarm(plan).run()
        assert again.targets[0].status == "incompatible"
        assert again.targets[0].error == first.targets[0].error


class TestDeterminism:
    def test_worker_count_is_invisible_in_manifests_and_report(self):
        serial = BuildFarm(SMALL, workers=1).run()
        pooled = BuildFarm(SMALL, workers=4).run()
        assert serial.manifests_jsonl() == pooled.manifests_jsonl()
        assert serial.to_json() == pooled.to_json()

    def test_warm_run_reproduces_cold_manifests_byte_for_byte(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cold = BuildFarm(SMALL, store=store).run()
        warm = BuildFarm(SMALL, store=ArtifactStore(str(tmp_path))).run()
        assert warm.built == 0
        assert warm.cached == len(SMALL)
        assert warm.manifests_jsonl() == cold.manifests_jsonl()

    def test_manifests_jsonl_is_canonical_json_lines(self):
        report = BuildFarm(SMALL).run()
        lines = report.manifests_jsonl().splitlines()
        assert len(lines) == len(SMALL)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"target", "build_key", "manifest"}
            assert record["manifest"]["bundle"]["checksum"]

    def test_use_cache_false_never_touches_the_store(self):
        store = ArtifactStore()
        store.store("unrelated", {"manifest": {}})
        report = BuildFarm(SMALL, store=store, use_cache=False).run()
        assert report.built == len(SMALL)
        assert store.hits == 0 and store.misses == 0
        assert len(store) == 1


class TestFarmExecution:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            BuildFarm(SMALL, workers=0)

    def test_build_one_manifest_matches_farm_manifest(self):
        report = BuildFarm(BuildPlan(devices=("device-a",),
                                     roles=("board-test",))).run()
        direct = build_one("device-a", "board-test")
        assert direct["manifest"] == report.targets[0].manifest
        assert [step["step"] for step in direct["steps"]] == \
            list(FARM_STEP_NAMES)

    def test_step_timings_survive_only_on_built_targets(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cold = BuildFarm(SMALL, store=store).run()
        warm = BuildFarm(SMALL, store=ArtifactStore(str(tmp_path))).run()
        for result in cold.targets:
            assert [timing.step for timing in result.steps] == \
                list(FARM_STEP_NAMES)
        for result in warm.targets:
            assert result.steps == ()


class TestDag:
    def test_chains_follow_farm_step_order(self):
        nodes = BuildFarm(BuildPlan(devices=("device-a",),
                                    roles=("sec-gateway",))).plan_dag()
        assert [node.step for node in nodes] == list(FARM_STEP_NAMES)
        for previous, node in zip(nodes, nodes[1:]):
            assert node.deps == (previous.node_id,)

    def test_variants_share_one_tailor_root_and_one_chain(self):
        nodes = BuildFarm(VARIANTS).plan_dag()
        tailors = [node for node in nodes if node.step == "tailor"]
        assert len(tailors) == 1
        assert set(tailors[0].targets) == {
            "sec-gateway@device-b", "sec-gateway@device-b-rev2"}
        fits = [node for node in nodes if node.step == "fit"]
        assert len(fits) == 1 and fits[0].cost_units > 0

    def test_incompatible_targets_have_no_chain(self):
        nodes = BuildFarm(BuildPlan(devices=("device-c",),
                                    roles=("retrieval",))).plan_dag()
        assert nodes == []


class TestObservability:
    def test_metrics_and_spans_published_to_context(self):
        context = SimContext(name="farm-test", trace=True)
        report = BuildFarm(SMALL, context=context).run()
        metrics = context.metrics
        assert metrics.counter("build.targets").value == len(SMALL)
        assert metrics.counter("build.built").value == report.built
        assert metrics.get("build.target.wall_ps").count == report.built
        for step in FARM_STEP_NAMES:
            assert metrics.get(f"build.step.{step}.wall_ps").count == \
                report.built
        names = context.trace.span_names()
        assert "build.target" in names
        assert "build.fit" in names
        spans = [record for record in context.trace.records
                 if record["name"] == "build.target"]
        assert len(spans) == report.built
        for record in spans:
            assert record["type"] == "X" and record["dur_ps"] >= 0
            assert record["attrs"]["device"] in SMALL.devices

    def test_cached_targets_emit_instants_not_spans(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        BuildFarm(SMALL, store=store).run()
        context = SimContext(name="farm-warm", trace=True)
        BuildFarm(SMALL, store=ArtifactStore(str(tmp_path)),
                  context=context).run()
        names = context.trace.span_names()
        assert "build.cached" in names
        assert "build.target" not in names
        assert context.metrics.counter("build.cached").value == len(SMALL)

    def test_default_build_slos_pass_on_the_fleet_matrix(self):
        from repro.obs.slo import SloMonitor, default_build_slos

        context = SimContext(name="farm-slo", trace=True)
        BuildFarm(fleet_build_plan(2024), context=context).run()
        report = SloMonitor(default_build_slos()).evaluate(context.metrics)
        assert report.ok, report.format()
        assert report.checked > 0
