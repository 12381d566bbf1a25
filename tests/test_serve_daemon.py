"""The serving daemon end-to-end, over real sockets on a real thread.

Concurrency-sensitive tests (coalescing, shedding) gate the execution
path on a :class:`threading.Event` by patching the daemon module's
``run_scenario`` -- the test controls exactly when work completes, so
there are no timing-dependent assertions.
"""

import json
import threading

import pytest

import repro.serve.daemon as daemon_module
from repro.scenario import Scenario, TenancySpec, WorkloadSpec
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.service import run_scenario

SWEEP = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                 workload=WorkloadSpec(packet_sizes=(64, 256),
                                       packets_per_point=50))
OTHER_SWEEP = Scenario(kind="sweep", apps=("sec-gateway",),
                       devices=("device-a",),
                       workload=WorkloadSpec(packet_sizes=(128,),
                                             packets_per_point=50))
FLEET = Scenario(kind="fleet",
                 tenancy=TenancySpec(flow_count=2_000, device_count=16,
                                     tenant_count=4))
BUILD = Scenario(kind="build", apps=("sec-gateway",), devices=("device-a",))


@pytest.fixture()
def handle():
    with serve_in_thread(ServeConfig(port=0, exec_workers=2)) as running:
        yield running


@pytest.fixture()
def client(handle):
    return ServeClient(handle.host, handle.port)


class TestEndpoints:
    def test_healthz_reports_warm_state(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["warm"] == {"sweep_cache_entries": 0,
                                  "artifact_store_entries": 0}

    def test_each_kind_executes(self, client):
        for scenario, endpoint in ((SWEEP, "sweep"), (FLEET, "fleet"),
                                   (BUILD, "build")):
            response = client.run_scenario(scenario, endpoint=endpoint)
            assert response.status == 200
            body = response.json()
            assert body["kind"] == scenario.kind
            assert body["scenario_id"] == scenario.scenario_id()
            assert body["exit_code"] == 0
            assert response.headers["x-scenario-id"] == \
                scenario.scenario_id()

    def test_run_endpoint_dispatches_any_kind(self, client):
        for scenario in (SWEEP, FLEET, BUILD):
            response = client.run_scenario(scenario, endpoint="run")
            assert response.status == 200
            assert response.json()["kind"] == scenario.kind

    def test_response_matches_the_service_layer_bytes(self, client):
        served = client.run_scenario(SWEEP, endpoint="sweep")
        solo = run_scenario(SWEEP).response_text().encode("utf-8")
        assert served.body == solo

    def test_warm_requests_reuse_the_resident_cache(self, client):
        first = client.run_scenario(SWEEP, endpoint="sweep")
        second = client.run_scenario(SWEEP, endpoint="sweep")
        assert first.body == second.body
        stats = client.stats()
        assert stats["cache"]["entries"] == len(SWEEP.workload.packet_sizes)
        assert client.health()["warm"]["sweep_cache_entries"] > 0

    def test_slo_query_and_endpoint(self, client):
        response = client.run_scenario(SWEEP, endpoint="sweep",
                                       slo="default")
        assert response.status == 200
        assert response.json()["slo"] is not None
        report = client.slo()
        assert report["exit_code"] == 0

    def test_metrics_exposition_covers_serving(self, client):
        client.run_scenario(SWEEP, endpoint="sweep")
        text = client.metrics_text()
        assert "serve" in text
        snapshot = client.stats()["metrics"]
        assert snapshot["serve"]["requests"] >= 1

    def test_stats_reports_all_subsystems(self, client):
        stats = client.stats()
        assert set(stats) == {"metrics", "coalescer", "admission", "cache",
                              "pool", "orchestrator", "telemetry",
                              "trace_ring"}
        assert stats["admission"]["max_queue"] == 32
        assert stats["pool"] == {"max_workers": 4, "resident": True}
        assert stats["telemetry"]["window_s"] == 60.0
        assert stats["trace_ring"]["enabled"] is True


class TestOrchestratorServing:
    def _epoch_fleet(self):
        from repro.scenario import EpochsSpec

        return FLEET.replace(epochs=EpochsSpec(epochs=3, churn=0.02))

    def test_epoch_fleet_serves_and_matches_solo_bytes(self, client):
        scenario = self._epoch_fleet()
        served = client.run_scenario(scenario, endpoint="fleet")
        assert served.status == 200
        solo = run_scenario(scenario).response_text().encode("utf-8")
        assert served.body == solo

    def test_day_totals_fold_into_stats_counters(self, client):
        scenario = self._epoch_fleet()
        client.run_scenario(scenario, endpoint="fleet")
        # An identical SLO-less repeat would be a memo hit; ?slo=default
        # is a distinct key, so the day runs a second time.
        client.run_scenario(scenario, endpoint="fleet", slo="default")
        stats = client.stats()["orchestrator"]
        assert stats["runs"] == 2
        assert stats["epochs"] == 6
        assert stats["migrations"] >= 0
        solo = run_scenario(scenario)
        totals = solo.meta["totals"]
        assert stats["pr_grants"] == 2 * totals["pr_grants"]
        assert stats["slo_violations"] == 2 * totals["slo_violations"]

    def test_plain_fleet_leaves_orchestrator_counters_cold(self, client):
        client.run_scenario(FLEET, endpoint="fleet")
        stats = client.stats()["orchestrator"]
        assert stats["runs"] == 0
        assert stats["epochs"] == 0


class TestErrors:
    def test_unknown_path_is_404(self, client):
        from repro.serve import http_request

        response = http_request(client.host, client.port, "GET", "/nope")
        assert response.status == 404

    def test_wrong_method_is_405(self, client):
        from repro.serve import http_request

        assert http_request(client.host, client.port, "POST",
                            "/healthz").status == 405
        assert http_request(client.host, client.port, "GET",
                            "/v1/sweep").status == 405

    def test_bad_json_is_400(self, client):
        response = client.run_scenario(b"{not json", endpoint="sweep")
        assert response.status == 400
        assert "JSON" in response.json()["error"]

    def test_invalid_scenario_is_400(self, client):
        response = client.run_scenario({"kind": "sweep", "bogus": 1},
                                       endpoint="sweep")
        assert response.status == 400

    def test_kind_endpoint_mismatch_is_400(self, client):
        response = client.run_scenario(FLEET, endpoint="sweep")
        assert response.status == 400
        assert "/v1/fleet" in response.json()["error"]

    def test_file_slo_specs_are_rejected_over_http(self, client):
        response = client.run_scenario(SWEEP, endpoint="sweep",
                                       slo="/etc/slo.json")
        assert response.status == 400

    def test_oversized_body_is_413(self):
        with serve_in_thread(ServeConfig(port=0, max_body=64)) as running:
            response = ServeClient(running.host, running.port).run_scenario(
                SWEEP, endpoint="sweep")
            assert response.status == 413

    def test_remote_shutdown_is_disabled_by_default(self, client):
        assert client.shutdown().status == 404

    def test_oversized_request_line_is_400(self, client):
        from repro.serve import http_request

        response = http_request(client.host, client.port, "GET",
                                "/" + "x" * 70_000)
        assert response.status == 400
        assert response.json()["error"] == "request line too long"

    def test_oversized_header_line_is_400(self, client):
        from repro.serve import http_request

        response = http_request(client.host, client.port, "GET", "/healthz",
                                headers={"X-Big": "x" * 70_000})
        assert response.status == 400
        assert response.json()["error"] == "header line too long"


class _GatedExecution:
    """Patch the daemon's ``run_scenario`` so tests control completion."""

    def __init__(self, monkeypatch):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()
        monkeypatch.setattr(daemon_module, "run_scenario", self._call)

    def _call(self, scenario, **kwargs):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.gate.wait(timeout=30), "test never opened the gate"
        return run_scenario(scenario, **kwargs)


class TestCoalescing:
    def test_concurrent_identical_requests_execute_once(
            self, handle, client, monkeypatch):
        gated = _GatedExecution(monkeypatch)
        responses = [None] * 6

        def request(index):
            responses[index] = client.run_scenario(SWEEP, endpoint="sweep")

        leader = threading.Thread(target=request, args=(0,))
        leader.start()
        assert gated.started.wait(timeout=10)
        followers = [threading.Thread(target=request, args=(i,))
                     for i in range(1, 6)]
        for thread in followers:
            thread.start()
        deadline_stats = None
        for _ in range(500):
            deadline_stats = handle.daemon.coalescer.counters()
            if deadline_stats["attached"] == 5:
                break
            threading.Event().wait(0.01)
        assert deadline_stats["attached"] == 5, deadline_stats
        gated.gate.set()
        leader.join(timeout=30)
        for thread in followers:
            thread.join(timeout=30)

        assert gated.calls == 1, "identical concurrent requests must run once"
        assert [r.status for r in responses] == [200] * 6
        assert len({r.body for r in responses}) == 1
        # ... and those shared bytes match a solo, uncoalesced run:
        assert responses[0].body == \
            run_scenario(SWEEP).response_text().encode("utf-8")
        roles = sorted(r.headers["x-coalesced"] for r in responses)
        assert roles == ["follower"] * 5 + ["leader"]

    def test_distinct_scenarios_never_share_results(
            self, handle, client, monkeypatch):
        gated = _GatedExecution(monkeypatch)
        responses = {}

        def request(name, scenario):
            responses[name] = client.run_scenario(scenario, endpoint="sweep")

        threads = [threading.Thread(target=request, args=("a", SWEEP)),
                   threading.Thread(target=request, args=("b", OTHER_SWEEP))]
        threads[0].start()
        assert gated.started.wait(timeout=10)
        threads[1].start()
        for _ in range(500):
            if gated.calls == 2:
                break
            threading.Event().wait(0.01)
        gated.gate.set()
        for thread in threads:
            thread.join(timeout=30)

        assert gated.calls == 2, "distinct scenarios must not coalesce"
        assert responses["a"].status == responses["b"].status == 200
        assert responses["a"].body != responses["b"].body
        assert responses["a"].headers["x-scenario-id"] != \
            responses["b"].headers["x-scenario-id"]

    def test_sequential_identical_requests_do_not_coalesce(self, client):
        first = client.run_scenario(SWEEP, endpoint="sweep")
        second = client.run_scenario(SWEEP, endpoint="sweep")
        counters = client.stats()["coalescer"]
        assert counters["executions"] == 1   # the repeat is a memo hit,
        assert counters["attached"] == 0     # not an in-flight follower
        assert counters["memo_hits"] == 1
        assert first.body == second.body
        assert (first.headers["x-coalesced"],
                second.headers["x-coalesced"]) == ("leader", "memo")


class TestResponseMemo:
    def test_memo_hit_is_solo_bytes_and_runs_nothing(
            self, handle, client, monkeypatch):
        first = client.run_scenario(SWEEP, endpoint="sweep")
        runs, submits = [], []
        monkeypatch.setattr(daemon_module, "run_scenario",
                            lambda *args, **kwargs: runs.append(1))
        monkeypatch.setattr(handle.daemon.executor, "submit",
                            lambda *args, **kwargs: submits.append(1))
        hit = client.run_scenario(SWEEP, endpoint="run")
        assert hit.status == 200
        assert hit.headers["x-coalesced"] == "memo"
        assert hit.headers["x-scenario-id"] == SWEEP.scenario_id()
        assert hit.body == first.body == \
            run_scenario(SWEEP).response_text().encode("utf-8")
        assert runs == [] and submits == []
        assert client.stats()["coalescer"] == {
            "executions": 1, "attached": 0, "inflight": 0, "memo_hits": 1,
            "memo_entries": 1, "memo_bytes": len(first.body),
            "memo_evictions": 0}
        assert client.stats()["metrics"]["serve"]["coalesce"] == {
            "executed": 1, "memo_hits": 1}
        assert ('harmonia_memo_hits_total{path="serve.coalesce"} 1'
                in client.metrics_text())

    def test_slo_requests_bypass_the_memo(self, client):
        client.run_scenario(SWEEP, endpoint="sweep")
        for _ in range(2):
            response = client.run_scenario(SWEEP, endpoint="sweep",
                                           slo="default")
            assert response.status == 200
            assert response.headers["x-coalesced"] == "leader"
        counters = client.stats()["coalescer"]
        assert (counters["executions"], counters["memo_hits"],
                counters["memo_entries"]) == (3, 0, 1)

    def test_quota_and_kind_checks_fire_on_a_memoised_scenario(self):
        config = ServeConfig(port=0, quota_rps=0.001, quota_burst=1.0)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            assert client.run_scenario(SWEEP, endpoint="sweep",
                                       tenant="alpha").status == 200
            hit = client.run_scenario(SWEEP, endpoint="sweep", tenant="beta")
            assert (hit.status, hit.headers["x-coalesced"]) == (200, "memo")
            assert client.run_scenario(SWEEP, endpoint="sweep",
                                       tenant="alpha").status == 429
            mismatch = client.run_scenario(SWEEP, endpoint="fleet",
                                           tenant="gamma")
            assert mismatch.status == 400
            assert "/v1/sweep" in mismatch.json()["error"]
            assert client.stats()["coalescer"]["memo_hits"] == 1


class TestAdmission:
    def test_queue_full_sheds_with_503(self, monkeypatch):
        config = ServeConfig(port=0, exec_workers=1, max_queue=1)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            gated = _GatedExecution(monkeypatch)
            holder = [None]

            def hold():
                holder[0] = client.run_scenario(SWEEP, endpoint="sweep")

            thread = threading.Thread(target=hold)
            thread.start()
            assert gated.started.wait(timeout=10)
            shed = client.run_scenario(OTHER_SWEEP, endpoint="sweep")
            assert shed.status == 503
            assert "queue full" in shed.json()["error"]
            gated.gate.set()
            thread.join(timeout=30)
            assert holder[0].status == 200
            stats = client.stats()
            assert stats["admission"]["shed"] == 1
            assert stats["metrics"]["serve"]["shed"] == 1

    def test_quota_rejects_with_429_per_tenant(self):
        config = ServeConfig(port=0, quota_rps=0.001, quota_burst=1.0)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            first = client.run_scenario(SWEEP, endpoint="sweep",
                                        tenant="alpha")
            second = client.run_scenario(SWEEP, endpoint="sweep",
                                         tenant="alpha")
            other = client.run_scenario(SWEEP, endpoint="sweep",
                                        tenant="beta")
            assert first.status == 200
            assert second.status == 429
            assert second.headers["retry-after"] == "1"
            assert other.status == 200, "quotas are per tenant"
            stats = client.stats()
            assert stats["admission"]["quota_rejections"] == 1
            assert set(stats["admission"]["tenants"]) == {"alpha", "beta"}


class TestWarmState:
    def test_lru_bound_evicts_and_counts(self):
        config = ServeConfig(port=0, cache_entries=2)
        wide = Scenario(
            kind="sweep", apps=("sec-gateway",), devices=("device-a",),
            workload=WorkloadSpec(packet_sizes=(64, 128, 256, 512),
                                  packets_per_point=50))
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            assert client.run_scenario(wide, endpoint="sweep").status == 200
            stats = client.stats()
            assert stats["cache"]["entries"] == 2
            assert stats["cache"]["evictions"] == 2
            assert stats["metrics"]["sweep"]["cache"]["evictions"] == 2
            assert "evictions" in client.metrics_text()

    def test_cache_file_round_trips_across_restarts(self, tmp_path):
        cache_file = str(tmp_path / "cache.json")
        config = ServeConfig(port=0, cache_file=cache_file)
        with serve_in_thread(config) as running:
            client = ServeClient(running.host, running.port)
            client.run_scenario(SWEEP, endpoint="sweep")
        with serve_in_thread(ServeConfig(port=0,
                                         cache_file=cache_file)) as running:
            client = ServeClient(running.host, running.port)
            warm = client.health()["warm"]
            assert warm["sweep_cache_entries"] == \
                len(SWEEP.workload.packet_sizes)

    def test_remote_shutdown_when_enabled(self):
        config = ServeConfig(port=0, allow_remote_shutdown=True)
        handle = serve_in_thread(config)
        client = ServeClient(handle.host, handle.port)
        assert client.shutdown().status == 200
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()


class TestResidentPool:
    def test_pool_workers_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServeConfig(port=0, pool_workers=0).validate()

    def test_cold_sweep_goes_through_the_fused_planner(self, client):
        assert client.run_scenario(SWEEP, endpoint="sweep").status == 200
        snapshot = client.stats()["metrics"]["serve"]
        assert snapshot["sweep"]["fused_points"] == \
            len(SWEEP.workload.packet_sizes)
        assert snapshot["sweep"]["fused_groups"] == 1
        # Fused points never touch the ProcessPool, and no per-request
        # pool may ever be spawned inside the daemon.
        assert "pool" not in snapshot

    def test_unfusable_points_dispatch_to_the_resident_pool(self, client):
        first = Scenario(kind="sweep", apps=("sec-gateway",),
                         devices=("device-a",), engine="des",
                         workload=WorkloadSpec(packet_sizes=(64,),
                                               packets_per_point=50))
        second = Scenario(kind="sweep", apps=("sec-gateway",),
                          devices=("device-a",), engine="des",
                          workload=WorkloadSpec(packet_sizes=(128,),
                                                packets_per_point=50))
        for scenario in (first, second):
            assert client.run_scenario(scenario,
                                       endpoint="sweep").status == 200
        snapshot = client.stats()["metrics"]["serve"]
        assert snapshot["sweep"]["pooled_points"] == 2
        assert snapshot["pool"]["dispatches"] == 2     # resident pool reused
        assert "request_spawns" not in snapshot["pool"]

    def test_warm_sweep_executes_nothing(self, client):
        client.run_scenario(SWEEP, endpoint="sweep")
        before = client.stats()["metrics"]["serve"]["sweep"]
        client.run_scenario(SWEEP, endpoint="sweep")
        after = client.stats()["metrics"]["serve"]["sweep"]
        assert after["fused_points"] == before["fused_points"]
        assert after.get("pooled_points") == before.get("pooled_points")
