"""Fleet-scale serving simulator: policies, residency, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multitenancy import residency_matrix
from repro.errors import ConfigurationError
from repro.platform.fleet import Introduction, production_fleet
from repro.runtime import SimContext
from repro.runtime.fleet import (
    POLICIES,
    FleetSimulation,
    FleetSpec,
    _allocate_instances,
    _capacity_gbps,
    assign_flows,
    assign_flows_reference,
)
from repro.workloads.flows import zipf_weights_array

#: Small but non-trivial scenario -- fast enough for every test.
SMALL = FleetSpec(flow_count=20_000, device_count=64, tenant_count=8,
                  slots_per_device=2, seed=11)


@pytest.fixture(scope="module")
def small_result():
    return FleetSimulation(SMALL).run()


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"flow_count": 0},
        {"device_count": 0},
        {"tenant_count": 0},
        {"slots_per_device": 0},
        {"alpha": 0.0},
        {"offered_load": 0.0},
        {"mean_packet_bytes": 0},
    ])
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetSpec(**kwargs)

    def test_too_few_devices_for_active_types_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSimulation(FleetSpec(flow_count=100, device_count=2))

    def test_unknown_policy_rejected(self, small_result):
        simulation = FleetSimulation(SMALL)
        with pytest.raises(ConfigurationError):
            simulation.assignment("random")
        with pytest.raises(ConfigurationError):
            simulation.run(())


class TestCapacityMapping:
    def test_catalog_device_uses_catalog_speed(self):
        assert _capacity_gbps("device-c") == 400.0

    def test_speed_suffix_wins_for_uncatalogued_variant(self):
        assert _capacity_gbps("device-a-100g") == 100.0
        assert _capacity_gbps("device-c-400g") == 400.0

    def test_revision_falls_back_to_base_type(self):
        assert _capacity_gbps("device-b-rev2") == _capacity_gbps("device-b")

    def test_unpriceable_name_gets_conservative_fallback(self):
        assert _capacity_gbps("device-zynq-edge") == 25.0
        assert _capacity_gbps("mystery-part") == 25.0


class TestAllocation:
    def test_shares_proportional_and_exact(self):
        allocation = _allocate_instances([3_000, 1_000], 100)
        assert sum(allocation) == 100
        assert allocation[0] == 75 and allocation[1] == 25

    def test_every_type_gets_an_instance(self):
        allocation = _allocate_instances([10_000, 1], 10)
        assert sum(allocation) == 10
        assert min(allocation) >= 1

    def test_production_fleet_2024_covers_ten_types(self):
        simulation = FleetSimulation(SMALL)
        assert len(simulation.groups) == \
            len(production_fleet().active_introductions(2024))
        assert simulation.device_count == SMALL.device_count

    def test_no_units_rejected(self):
        with pytest.raises(ConfigurationError):
            _allocate_instances([0, 0], 10)

    def test_equal_remainders_break_toward_earlier_index(self):
        # Three equal unit counts, one surplus instance after the floor
        # pass: every remainder ties, so the surplus must land on the
        # earliest index -- never flapping between reruns.
        assert _allocate_instances([100, 100, 100], 4) == [2, 1, 1]
        assert _allocate_instances([100, 100, 100], 5) == [2, 2, 1]

    def test_allocation_is_rerun_stable(self):
        units = [7, 13, 13, 7, 60]
        first = _allocate_instances(units, 23)
        assert all(_allocate_instances(units, 23) == first
                   for _ in range(5))
        assert sum(first) == 23


class TestActiveIntroductions:
    def test_lifecycle_window_respected(self):
        history = production_fleet()
        active_2024 = {item.device_name
                       for item in history.active_introductions(2024)}
        assert "device-b" in active_2024          # 2020 + 5y lifecycle
        assert "device-c-400g" in active_2024
        assert history.active_introductions(2019) == []

    def test_sorted_deterministically(self):
        items = production_fleet().active_introductions(2024)
        assert items == sorted(items,
                               key=lambda i: (i.year, i.device_name))


class TestResidencyMatrix:
    def test_heaviest_tenants_hold_slots(self):
        load = np.asarray([[5.0, 1.0, 3.0, 2.0]])
        resident = residency_matrix(load, 2)
        assert resident.tolist() == [[True, False, True, False]]

    def test_ties_break_toward_lower_tenant(self):
        load = np.asarray([[1.0, 1.0, 1.0]])
        assert residency_matrix(load, 2).tolist() == [[True, True, False]]

    def test_everyone_resident_when_slots_cover_tenants(self):
        load = np.zeros((3, 2))
        assert residency_matrix(load, 4).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            residency_matrix(np.zeros((2, 2)), 0)
        with pytest.raises(ConfigurationError):
            residency_matrix(np.zeros(4), 1)


class TestPolicies:
    def test_all_policies_evaluated(self, small_result):
        assert tuple(p.policy for p in small_result.policies) == POLICIES

    def test_round_robin_spreads_flows_evenly(self):
        simulation = FleetSimulation(SMALL)
        assign = simulation.assignment("round-robin")
        counts = np.bincount(assign, minlength=simulation.device_count)
        assert counts.max() - counts.min() <= 1

    def test_flow_hash_is_pure_function_of_flow(self):
        simulation = FleetSimulation(SMALL)
        first = simulation.assignment("flow-hash")
        second = simulation.assignment("flow-hash")
        assert (first == second).all()

    def test_least_loaded_has_lowest_imbalance(self, small_result):
        by_name = {p.policy: p for p in small_result.policies}
        assert by_name["least-loaded"].imbalance <= \
            by_name["round-robin"].imbalance
        assert by_name["least-loaded"].imbalance <= \
            by_name["flow-hash"].imbalance

    def test_least_loaded_wins_p99_under_skew(self, small_result):
        assert small_result.best_policy().policy == "least-loaded"

    def test_utilization_accounting(self, small_result):
        for policy in small_result.policies:
            utilization = np.asarray(policy.device_utilization)
            assert utilization.shape == (SMALL.device_count,)
            assert (utilization >= 0).all()
            assert policy.utilization_max == pytest.approx(utilization.max())
            assert policy.imbalance == pytest.approx(
                utilization.max() / utilization.mean())
            assert policy.overloaded_devices == int((utilization > 1.0).sum())

    def test_tenant_stats_cover_all_flows(self, small_result):
        for policy in small_result.policies:
            assert len(policy.tenants) == SMALL.tenant_count
            assert sum(t.flows for t in policy.tenants) == SMALL.flow_count
            for tenant in policy.tenants:
                assert tenant.p99_ns >= tenant.p50_ns >= 0

    def test_tenant_grouping_is_stable_and_complete(self):
        simulation = FleetSimulation(SMALL)
        order, counts = simulation.tenant_groups
        grouped = simulation.flow_tenant[order]
        assert (np.diff(grouped) >= 0).all()
        assert np.array_equal(
            np.bincount(grouped, minlength=SMALL.tenant_count), counts)
        for tenant in range(SMALL.tenant_count):
            members = order[grouped == tenant]
            assert (np.diff(members) > 0).all()


class TestDeterminismAndJson:
    def test_same_spec_same_json(self, small_result):
        again = FleetSimulation(SMALL).run()
        assert json.dumps(again.to_json(), sort_keys=True) == \
            json.dumps(small_result.to_json(), sort_keys=True)

    def test_seed_changes_the_scenario(self, small_result):
        other = FleetSimulation(FleetSpec(flow_count=20_000, device_count=64,
                                          tenant_count=8, slots_per_device=2,
                                          seed=12)).run()
        assert other.to_json() != small_result.to_json()

    def test_json_round_trips(self, small_result):
        payload = json.loads(json.dumps(small_result.to_json()))
        assert payload["best_policy"] == "least-loaded"
        assert payload["spec"]["flow_count"] == SMALL.flow_count
        assert len(payload["policies"]) == len(POLICIES)

    def test_rate_cap_bounds_single_flows(self):
        simulation = FleetSimulation(SMALL)
        assert simulation.flow_rate_gbps.max() <= \
            simulation.instance_capacity_gbps.max()
        assert simulation.effective_offered_gbps <= simulation.offered_gbps

    def test_batched_run_shares_scratch_byte_identically(self, small_result):
        # run() threads ONE scratch assignment buffer through every
        # policy; the payload must be byte-identical to evaluating each
        # policy with its own freshly allocated arrays.
        simulation = FleetSimulation(SMALL)
        separate = {policy: simulation.run_policy(policy)
                    for policy in POLICIES}
        batched = {result.policy: result
                   for result in small_result.policies}
        for policy in POLICIES:
            assert json.dumps(batched[policy].to_json(), sort_keys=True) == \
                json.dumps(separate[policy].to_json(), sort_keys=True)

    def test_assignment_out_buffer_is_reused(self):
        simulation = FleetSimulation(SMALL)
        scratch = np.empty(SMALL.flow_count, dtype=np.int64)
        returned = simulation.assignment("flow-hash", out=scratch)
        assert returned is scratch
        fresh = simulation.assignment("flow-hash")
        assert np.array_equal(returned, fresh)


class TestObservability:
    def test_metrics_and_spans_emitted(self):
        context = SimContext(name="fleet-test", trace=True)
        FleetSimulation(SMALL, context=context).run(("least-loaded",))
        snapshot = context.metrics.snapshot()
        assert snapshot["fleet"]["least-loaded"]["p99_ns"] > 0
        assert snapshot["fleet"]["flows"] == SMALL.flow_count
        assert "fleet.least-loaded" in context.trace.span_names()

    def test_slot_plan_validated_for_catalog_types(self):
        simulation = FleetSimulation(SMALL)
        assert simulation.slot_plan  # at least the catalog-backed types
        assert all(count == SMALL.slots_per_device
                   for count in simulation.slot_plan.values())

    def test_instance_labels(self):
        simulation = FleetSimulation(SMALL)
        assert simulation.instance_label(0).endswith("[0]")
        with pytest.raises(ConfigurationError):
            simulation.instance_label(simulation.device_count)


class TestCustomHistory:
    def test_private_history_is_honoured(self):
        from repro.platform.fleet import FleetHistory

        history = FleetHistory([
            Introduction(2024, "device-a", 100),
            Introduction(2024, "device-c", 300),
        ])
        spec = FleetSpec(flow_count=5_000, device_count=16, tenant_count=4,
                         slots_per_device=2)
        simulation = FleetSimulation(spec, history=history)
        assert [g.device_name for g in simulation.groups] == \
            ["device-a", "device-c"]
        assert sum(g.instances for g in simulation.groups) == 16
        assert simulation.groups[1].instances == 12


#: Capacities drawn with duplicates: the stock fleet's line rates plus
#: two off-grid values so inverse capacities are not all exact.
CAPACITIES = (10.0, 25.0, 25.0, 100.0, 100.0, 400.0, 3.7, 62.5)


@st.composite
def lpt_inputs(draw):
    """(rates, capacities) covering ties, unsorted rates and tiny fleets."""
    devices = draw(st.one_of(st.integers(1, 8), st.integers(9, 104)))
    flows = draw(st.one_of(st.integers(1, devices), st.integers(1, 700)))
    capacity = np.asarray(draw(st.lists(
        st.sampled_from(CAPACITIES), min_size=devices, max_size=devices)))
    shape = draw(st.sampled_from(("capped-zipf", "unsorted", "ties")))
    if shape == "capped-zipf":
        # The fleet's own rate shape: a Zipf tail under a head capped
        # at the fastest line rate, so the head is a run of equal rates.
        offered = draw(st.floats(0.1, 2.0)) * capacity.sum()
        rates = np.minimum(
            zipf_weights_array(flows, draw(st.floats(0.8, 1.6))) * offered,
            capacity.max())
    elif shape == "unsorted":
        rates = np.asarray(draw(st.lists(
            st.floats(0.0, 500.0, allow_nan=False), min_size=flows,
            max_size=flows)))
    else:
        rates = np.asarray(draw(st.lists(
            st.sampled_from((0.0, 0.5, 1.0, 25.0, 400.0)), min_size=flows,
            max_size=flows)))
    return rates, capacity


class TestLeastLoadedKernel:
    """The round-blocked kernel against the per-flow heap oracle."""

    @settings(max_examples=200, deadline=None)
    @given(lpt_inputs())
    def test_assign_flows_matches_reference(self, inputs):
        rates, capacity = inputs
        expected = assign_flows_reference(
            "least-loaded", rates, None, capacity)
        assert np.array_equal(
            assign_flows("least-loaded", rates, None, capacity), expected)

    def test_fleet_sized_case_is_bit_exact(self):
        simulation = FleetSimulation(FleetSpec(
            flow_count=200_000, device_count=1_000, seed=7))
        rates = simulation.flow_rate_gbps
        capacity = simulation.instance_capacity_gbps
        scratch = np.empty(rates.shape[0], dtype=np.int64)
        returned = simulation.assignment("least-loaded", out=scratch)
        assert returned is scratch
        assert np.array_equal(returned, assign_flows_reference(
            "least-loaded", rates, None, capacity))

    @pytest.mark.parametrize("devices", [4, 64])
    @pytest.mark.parametrize("rates, capacity", [
        ([1.0, float("nan")], 100.0),
        ([1.0, float("inf")], 100.0),
        ([1.0, -float("inf")], 100.0),
        ([1.0, 2.0], 0.0),
        ([1.0, 2.0], -25.0),
        ([1.0, 2.0], float("nan")),
    ])
    def test_non_finite_rates_and_bad_capacities_rejected(
            self, devices, rates, capacity):
        capacities = np.full(devices, 100.0)
        capacities[-1] = capacity
        with pytest.raises(ConfigurationError):
            assign_flows("least-loaded", np.asarray(rates), None, capacities)
