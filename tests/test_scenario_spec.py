"""The unified declarative Scenario spec: validation, canonical
serialisation, identity, and the tier-native conversions."""

import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, HarmoniaError
from repro.runtime.buildfarm import BuildFarm, BuildPlan, fleet_build_plan
from repro.runtime.fleet import FleetSpec
from repro.runtime.sweep import SweepRunner, chain_signature, point_chain, sweep_cache_key
from repro.scenario import (
    DEFAULT_BUILD_SOFTWARE,
    SCENARIO_VERSION,
    BuildSpec,
    EpochsSpec,
    Scenario,
    TenancySpec,
    WorkloadSpec,
    load_scenario,
    loads_scenario,
    save_scenario,
)
from repro.scenario.spec import known_app_names, known_device_names, require_engine


def sweep_scenario(**changes):
    base = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",))
    return base.replace(**changes) if changes else base


class TestValidation:
    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(ConfigurationError, match="sweep, fleet, build"):
            Scenario(kind="orchestrate")

    def test_unknown_version_is_loud(self):
        with pytest.raises(ConfigurationError, match="version"):
            sweep_scenario(version=SCENARIO_VERSION + 1)

    def test_unknown_engine_lists_engines(self):
        with pytest.raises(ConfigurationError, match="auto, vector, des"):
            sweep_scenario(engine="warp")

    def test_unknown_app_lists_known_names(self):
        scenario = sweep_scenario(apps=("nope",))
        with pytest.raises(ConfigurationError) as caught:
            scenario.validate_names()
        message = str(caught.value)
        assert "nope" in message
        for name in known_app_names():
            assert name in message

    def test_unknown_device_lists_catalog(self):
        scenario = sweep_scenario(devices=("nope",))
        with pytest.raises(ConfigurationError) as caught:
            scenario.validate_names()
        assert "device-a" in str(caught.value)

    def test_sweep_kind_needs_apps_and_devices(self):
        with pytest.raises(ConfigurationError, match="at least one app"):
            Scenario(kind="sweep")

    def test_configuration_error_is_harmonia_error(self):
        with pytest.raises(HarmoniaError):
            Scenario(kind="orchestrate")

    def test_unknown_json_key_is_rejected(self):
        data = sweep_scenario().to_json()
        data["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            Scenario.from_json(data)

    def test_unknown_workload_key_is_rejected(self):
        data = sweep_scenario().to_json()
        data["workload"]["jitter"] = True
        with pytest.raises(ConfigurationError, match="jitter"):
            Scenario.from_json(data)

    def test_bool_is_not_an_integer(self):
        data = sweep_scenario().to_json()
        data["seed"] = True
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario.from_json(data)

    def test_packet_sizes_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            WorkloadSpec(packet_sizes=(0,))

    def test_tenancy_mirrors_fleet_spec_messages(self):
        with pytest.raises(ConfigurationError, match="need at least one flow"):
            TenancySpec(flow_count=0)

    def test_require_engine_passes_known_names(self):
        assert require_engine("vector") == "vector"

    def test_non_mapping_scenario_is_loud(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            Scenario.from_json(["sweep"])

    def test_missing_kind_is_loud(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Scenario.from_json({"apps": ["sec-gateway"]})


class TestCanonicalSerialisation:
    def test_round_trip_is_identity(self):
        scenario = sweep_scenario(
            workload=WorkloadSpec(packet_sizes=(64, 777), trace=True))
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_canonical_bytes_ignore_key_order(self):
        scenario = sweep_scenario()
        data = scenario.to_json()
        reordered = dict(reversed(list(data.items())))
        reordered["workload"] = dict(
            reversed(list(data["workload"].items())))
        clone = Scenario.from_json(reordered)
        assert clone.canonical_json() == scenario.canonical_json()

    def test_loads_rejects_invalid_json(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            loads_scenario("{not json", source="inline.json")

    def test_save_load_round_trip(self, tmp_path):
        scenario = sweep_scenario()
        path = tmp_path / "scenario.json"
        text = save_scenario(scenario, str(path))
        assert path.read_text() == text + "\n"
        assert load_scenario(str(path)) == scenario

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario(str(tmp_path / "absent.json"))


class TestScenarioIdentity:
    def test_engine_is_excluded_from_identity(self):
        scenario = sweep_scenario()
        ids = {scenario.replace(engine=engine).scenario_id()
               for engine in ("auto", "vector", "des")}
        assert len(ids) == 1

    def test_workload_changes_identity(self):
        scenario = sweep_scenario()
        other = scenario.replace(workload=dataclasses.replace(
            scenario.workload, packets_per_point=7))
        assert other.scenario_id() != scenario.scenario_id()

    def test_identity_survives_key_reordering(self):
        scenario = sweep_scenario()
        reordered = dict(reversed(list(scenario.to_json().items())))
        assert Scenario.from_json(reordered).scenario_id() == scenario.scenario_id()

    def test_cached_id_equals_the_uncached_canonical_hash(self, monkeypatch):
        import repro.scenario.spec as spec_module

        calls = []
        uncached = spec_module.canonical_dumps

        def counting(value):
            calls.append(1)
            return uncached(value)

        monkeypatch.setattr(spec_module, "canonical_dumps", counting)
        scenario = sweep_scenario(seed=11)
        payload = scenario.to_json()
        del payload["engine"]
        expected = hashlib.sha256(
            uncached(payload).encode("utf-8")).hexdigest()
        assert scenario.scenario_id() == expected
        assert scenario.scenario_id() == expected
        assert len(calls) == 1            # validated once per instance
        assert scenario.replace(seed=12).scenario_id() != expected
        assert len(calls) == 2            # a new instance validates again

    def test_cached_id_is_invisible_to_dataclass_behaviour(self):
        cached, fresh = sweep_scenario(), sweep_scenario()
        cached.scenario_id()
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)
        assert dataclasses.replace(cached) == fresh
        assert dataclasses.replace(cached, seed=5) == fresh.replace(seed=5)
        assert pickle.dumps(cached) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(cached))
        assert clone == cached
        assert clone.scenario_id() == cached.scenario_id()


class TestEpochsSection:
    def _fleet(self, **changes):
        base = Scenario(kind="fleet",
                        tenancy=TenancySpec(flow_count=500, device_count=12,
                                            tenant_count=3))
        return base.replace(**changes) if changes else base

    def test_round_trips_canonically(self):
        scenario = self._fleet(epochs=EpochsSpec(epochs=6, churn=0.05,
                                                 policy="round-robin"))
        clone = loads_scenario(scenario.canonical_json())
        assert clone == scenario
        assert clone.epochs.policy == "round-robin"
        assert clone.canonical_json() == scenario.canonical_json()

    def test_absent_section_is_omitted_from_json(self):
        # Identity stability: pre-epochs fleet scenarios must keep
        # their serialised bytes (and so their ids) unchanged.
        payload = self._fleet().to_json()
        assert "epochs" not in payload

    def test_section_changes_identity(self):
        plain = self._fleet()
        stepped = self._fleet(epochs=EpochsSpec(epochs=6))
        assert plain.scenario_id() != stepped.scenario_id()
        other = self._fleet(epochs=EpochsSpec(epochs=7))
        assert other.scenario_id() != stepped.scenario_id()

    def test_only_fleet_scenarios_take_epochs(self):
        with pytest.raises(ConfigurationError, match="fleet"):
            sweep_scenario().replace(epochs=EpochsSpec())

    def test_validation_rejects_bad_knobs(self):
        for kwargs in ({"epochs": 0}, {"churn": 0.9}, {"scale_step": 0},
                       {"policy": "bogus"}):
            with pytest.raises(ConfigurationError):
                EpochsSpec(**kwargs)

    def test_unknown_epoch_key_is_rejected(self):
        scenario = self._fleet(epochs=EpochsSpec())
        payload = scenario.to_json()
        payload["epochs"]["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            Scenario.from_json(payload)

    def test_orchestrator_reads_epochs_section(self):
        from repro.runtime.orchestrator import Orchestrator

        section = EpochsSpec(epochs=6, churn=0.05, pr_budget=3)
        scenario = self._fleet(epochs=section)
        orchestrator = Orchestrator.from_scenario(scenario)
        assert orchestrator.spec == section
        assert orchestrator.fleet_spec == FleetSpec.from_scenario(scenario)
        with pytest.raises(ConfigurationError, match="epochs"):
            Orchestrator.from_scenario(self._fleet())


class TestSweepCacheKeyInsensitivity:
    """Satellite: the cache key must not see field order or engine."""

    def _keys(self, scenario):
        keys = []
        for point in scenario.expand_points():
            chain = point_chain(point)
            keys.append(sweep_cache_key(
                chain_signature(chain), point.packet_size_bytes,
                point.packet_count,
                trace_of=chain.name if point.trace else None))
        return keys

    def test_cache_keys_ignore_json_field_order(self):
        scenario = sweep_scenario(
            workload=WorkloadSpec(packet_sizes=(64, 256)))
        reordered = Scenario.from_json(
            dict(reversed(list(scenario.to_json().items()))))
        assert self._keys(reordered) == self._keys(scenario)

    def test_cache_keys_ignore_engine_choice(self):
        scenario = sweep_scenario(
            workload=WorkloadSpec(packet_sizes=(64, 256)))
        per_engine = [self._keys(scenario.replace(engine=engine))
                      for engine in ("auto", "vector", "des")]
        assert per_engine[0] == per_engine[1] == per_engine[2]


class TestTierConversions:
    def test_runner_runs_the_scenario_points(self):
        scenario = sweep_scenario(
            apps=("sec-gateway", "host-network"), engine="des",
            workload=WorkloadSpec(packet_sizes=(64, 128),
                                  packets_per_point=10))
        runner = SweepRunner(scenario, use_cache=False)
        assert runner.points == scenario.expand_points()
        result = runner.run()
        assert [outcome.point for outcome in result.points] == runner.points
        assert result.to_json()["plan"] == {
            "apps": ["sec-gateway", "host-network"],
            "devices": ["device-a"],
            **scenario.workload.to_json()}

    def test_scenario_engine_lands_on_every_point(self):
        scenario = sweep_scenario(engine="des")
        assert all(point.engine == "des"
                   for point in scenario.expand_points())

    def test_fleet_spec_from_scenario(self):
        scenario = Scenario(kind="fleet", seed=7, year=2_022,
                            tenancy=TenancySpec(flow_count=123,
                                                device_count=8,
                                                tenant_count=2,
                                                slots_per_device=3,
                                                alpha=1.2,
                                                offered_load=0.5,
                                                mean_packet_bytes=256))
        spec = FleetSpec.from_scenario(scenario)
        assert spec == FleetSpec(flow_count=123, device_count=8,
                                 tenant_count=2, slots_per_device=3,
                                 alpha=1.2, offered_load=0.5,
                                 mean_packet_bytes=256, seed=7, year=2_022)

    def test_fleet_spec_is_the_tenancy_section_plus_seed_and_year(self):
        tenancy = TenancySpec(flow_count=123, device_count=8, alpha=1.2)
        spec = FleetSpec(**tenancy.to_json(), seed=7, year=2_022)
        assert isinstance(spec, TenancySpec)
        assert spec.to_json() == {**tenancy.to_json(), "seed": 7,
                                  "year": 2_022}
        with pytest.raises(ConfigurationError, match="need at least one flow"):
            FleetSpec(flow_count=0)

    def test_build_plan_from_explicit_devices(self):
        scenario = Scenario(kind="build", apps=("sec-gateway",),
                            devices=("device-a", "device-b"),
                            build=BuildSpec(effort=2))
        plan = BuildPlan.from_scenario(scenario)
        assert plan == BuildPlan(devices=("device-a", "device-b"),
                                 roles=("sec-gateway",),
                                 build=BuildSpec(effort=2))
        assert plan.build is scenario.build

    def test_build_plan_defaults_to_fleet_year(self):
        scenario = Scenario(kind="build", year=2_022)
        assert BuildPlan.from_scenario(scenario) == fleet_build_plan(year=2_022)

    def test_kind_mismatch_is_loud(self):
        fleet = Scenario(kind="fleet")
        with pytest.raises(ConfigurationError, match="sweep"):
            SweepRunner(fleet)
        with pytest.raises(ConfigurationError, match="fleet"):
            FleetSpec.from_scenario(sweep_scenario())
        with pytest.raises(ConfigurationError, match="build"):
            BuildPlan.from_scenario(fleet)

    def test_default_build_software_matches_build_farm(self):
        # The farm declares no bundle of its own: a default scenario
        # packages the spec's.
        scenario = Scenario(kind="build", apps=("board-test",),
                            devices=("device-a",))
        report = BuildFarm(BuildPlan.from_scenario(scenario)).run()
        assert report.to_json()["plan"]["software"] == list(
            DEFAULT_BUILD_SOFTWARE)
        (target,) = report.targets
        assert target.manifest["bundle"]["software"] == list(
            DEFAULT_BUILD_SOFTWARE)


# ---------------------------------------------------------------------------
# Property suite: serialisation is exact over the whole valid space
# ---------------------------------------------------------------------------

app_lists = st.lists(st.sampled_from(known_app_names()),
                     min_size=1, max_size=3, unique=True).map(tuple)
device_lists = st.lists(st.sampled_from(known_device_names()),
                        min_size=1, max_size=3, unique=True).map(tuple)
workloads = st.builds(
    WorkloadSpec,
    packet_sizes=st.lists(st.integers(1, 9_000), min_size=1, max_size=4,
                          unique=True).map(lambda v: tuple(sorted(v))),
    packets_per_point=st.integers(1, 100_000),
    with_harmonia=st.booleans(),
    include_path_latency=st.booleans(),
    trace=st.booleans(),
)
tenancies = st.builds(
    TenancySpec,
    flow_count=st.integers(1, 10_000_000),
    device_count=st.integers(1, 65_536),
    tenant_count=st.integers(1, 4_096),
    slots_per_device=st.integers(1, 64),
    alpha=st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False),
    offered_load=st.floats(0.01, 2.0, allow_nan=False, allow_infinity=False),
    mean_packet_bytes=st.integers(1, 9_000),
)
builds = st.builds(
    BuildSpec,
    effort=st.integers(0, 8),
    software=st.lists(st.sampled_from(("driver", "runtime-lib",
                                       "health-agent", "telemetry")),
                      min_size=0, max_size=4, unique=True).map(tuple),
)
scenarios = st.builds(
    Scenario,
    kind=st.sampled_from(("sweep", "fleet", "build")),
    apps=app_lists,
    devices=device_lists,
    engine=st.sampled_from(("auto", "vector", "des")),
    seed=st.integers(0, 2 ** 31),
    year=st.integers(2_016, 2_030),
    workload=workloads,
    tenancy=tenancies,
    build=builds,
)


class TestSerialisationProperties:
    @given(scenario=scenarios)
    @settings(max_examples=60, deadline=None)
    def test_canonical_round_trip_is_byte_exact(self, scenario):
        text = scenario.canonical_json()
        clone = Scenario.from_json(json.loads(text))
        assert clone == scenario
        assert clone.canonical_json() == text

    @given(scenario=scenarios)
    @settings(max_examples=60, deadline=None)
    def test_identity_is_engine_free_and_stable(self, scenario):
        base = scenario.scenario_id()
        for engine in ("auto", "vector", "des"):
            assert scenario.replace(engine=engine).scenario_id() == base
        reordered = dict(reversed(list(scenario.to_json().items())))
        assert Scenario.from_json(reordered).scenario_id() == base
