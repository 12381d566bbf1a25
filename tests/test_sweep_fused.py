"""The fused multi-point planner inside :class:`SweepRunner`.

The acceptance bar for the fused path: **invisible in the output**.
``SweepResult.to_json()`` and ``merged_trace_jsonl()`` must be
byte-identical between fused, per-point (``fuse=False``), ``workers=1``
and ``workers=4`` executions; the planner only changes how cache-miss
points execute (in-process batched kernel vs ProcessPool fan-out), which
the provenance attributes -- and nothing else -- expose.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import repro.runtime.sweep as sweep_module
from repro.errors import ConfigurationError
from repro.runtime.sweep import (
    SweepCache,
    SweepPoint,
    SweepRunner,
    _pool_chunksize,
    partition_fusable,
    run_fused_group,
    run_point,
)
from repro.scenario import Scenario, WorkloadSpec

APP = "sec-gateway"
DEVICE = "device-a"


def small_plan(apps=(APP, "host-network"), engine="auto", **workload):
    """A sweep scenario; ``workload`` overrides :class:`WorkloadSpec`."""
    fields = dict(packet_sizes=(64, 256, 1024), packets_per_point=150)
    fields.update(workload)
    return Scenario(kind="sweep", apps=apps, devices=(DEVICE,),
                    engine=engine, workload=WorkloadSpec(**fields))


def result_bytes(result):
    return (json.dumps(result.to_json(), sort_keys=True),
            result.merged_trace_jsonl())


class TestPoolChunksize:
    @pytest.mark.parametrize("count,workers,expected", [
        (1, 1, 1),
        (1, 4, 1),
        (4, 1, 1),
        (16, 4, 1),     # exactly 4 chunks per worker
        (17, 4, 2),     # old floor-divide said 1 -> 17 pickling round trips
        (45, 4, 3),     # old floor-divide said 2 -> a 1-point tail chunk
        (100, 4, 7),
        (3, 8, 1),      # fewer points than workers never chunks to 0
    ])
    def test_ceil_divide_boundaries(self, count, workers, expected):
        assert _pool_chunksize(count, workers) == expected

    def test_always_positive(self):
        for count in range(1, 40):
            for workers in range(1, 9):
                assert _pool_chunksize(count, workers) >= 1


class TestBatchedCacheOps:
    def test_lookup_many_matches_singular_semantics(self):
        cache = SweepCache()
        cache.store("k1", {"throughput_bps": 1.0, "mean_latency_ns": 2.0})
        cache.store("k2", {"throughput_bps": 3.0, "mean_latency_ns": 4.0,
                           "trace_jsonl": "span\n"})
        found = cache.lookup_many(["k1", "k2", "k1", "missing"],
                                  [False, True, True, False])
        assert found[0]["throughput_bps"] == 1.0
        assert found[1]["trace_jsonl"] == "span\n"
        assert found[2] is None    # k1 has no trace: traced probe misses
        assert found[3] is None
        assert cache.hits == 2 and cache.misses == 2

    def test_lookup_many_refreshes_lru(self):
        cache = SweepCache(max_entries=2)
        cache.store("old", {"throughput_bps": 1.0})
        cache.store("new", {"throughput_bps": 2.0})
        cache.lookup_many(["old"], [False])   # refresh: "new" is now LRU
        cache.store("third", {"throughput_bps": 3.0})
        assert cache.evictions == 1
        assert cache.lookup("old", False) is not None
        assert cache.lookup("new", False) is None

    def test_store_many_keeps_downgrade_protection(self):
        cache = SweepCache()
        cache.store("k", {"throughput_bps": 1.0, "trace_jsonl": "span\n"})
        cache.store_many([
            ("k", {"throughput_bps": 1.0}),     # must not drop the trace
            ("k2", {"throughput_bps": 2.0}),
        ])
        assert cache.lookup("k", True)["trace_jsonl"] == "span\n"
        assert cache.lookup("k2", False)["throughput_bps"] == 2.0

    def test_store_many_enforces_bound(self):
        cache = SweepCache(max_entries=2)
        cache.store_many((f"k{i}", {"throughput_bps": float(i)})
                         for i in range(5))
        assert len(cache) == 2
        assert cache.evictions == 3


class TestPartition:
    def points(self, **overrides):
        base = dict(app=APP, device=DEVICE, packet_size_bytes=64,
                    packet_count=100)
        base.update(overrides)
        return SweepPoint(**base)

    def test_groups_by_chain_and_count(self):
        points = [
            self.points(packet_size_bytes=64),
            self.points(packet_size_bytes=256),
            self.points(packet_size_bytes=64, packet_count=200),
            self.points(app="host-network"),
            self.points(packet_size_bytes=512),
        ]
        groups, pooled = partition_fusable(points, range(len(points)))
        assert pooled == []
        assert list(groups.values()) == [[0, 1, 4], [2], [3]]
        assert list(groups) == [
            ((APP, DEVICE, True), 100),
            ((APP, DEVICE, True), 200),
            (("host-network", DEVICE, True), 100),
        ]

    def test_traced_and_des_points_pool(self):
        points = [
            self.points(),
            self.points(trace=True),
            self.points(engine="des"),
        ]
        groups, pooled = partition_fusable(points, range(3))
        assert list(groups.values()) == [[0]]
        assert pooled == [1, 2]

    def test_non_analytic_chain_pools(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "chain_supports_vector",
                            lambda chain: False)
        groups, pooled = partition_fusable([self.points()], [0])
        assert not groups and pooled == [0]

    def test_fused_group_matches_run_point(self):
        points = [self.points(packet_size_bytes=size)
                  for size in (64, 256, 1024)]
        fused = run_fused_group(points, [0, 1, 2])
        assert fused == [run_point(point) for point in points]


class TestDeterminism:
    def test_fused_perpoint_and_workers_byte_identical(self):
        plan = small_plan()
        runs = [
            SweepRunner(plan, workers=1, cache=SweepCache(), fuse=True).run(),
            SweepRunner(plan, workers=1, cache=SweepCache(), fuse=False).run(),
            SweepRunner(plan, workers=4, cache=SweepCache(), fuse=True).run(),
            SweepRunner(plan, workers=4, cache=SweepCache(), fuse=False).run(),
        ]
        baseline = result_bytes(runs[0])
        for result in runs[1:]:
            assert result_bytes(result) == baseline

    def test_traced_plan_byte_identical_and_unfused(self):
        plan = small_plan(trace=True, packet_sizes=(64, 256),
                          packets_per_point=40)
        fused = SweepRunner(plan, workers=1, cache=SweepCache(),
                            fuse=True).run()
        plain = SweepRunner(plan, workers=4, cache=SweepCache(),
                            fuse=False).run()
        assert result_bytes(fused) == result_bytes(plain)
        assert fused.merged_trace_jsonl()
        assert fused.fused_points == 0       # traces force per-point
        assert fused.pooled_points == len(fused)

    def test_cache_entries_identical_across_modes(self):
        plan = small_plan()
        fused_cache, plain_cache = SweepCache(), SweepCache()
        SweepRunner(plan, cache=fused_cache, fuse=True).run()
        SweepRunner(plan, cache=plain_cache, fuse=False).run()
        assert fused_cache._entries == plain_cache._entries

    def test_warm_cache_serves_fused_results(self):
        cache = SweepCache()
        plan = small_plan()
        cold = SweepRunner(plan, cache=cache, fuse=True).run()
        warm = SweepRunner(plan, cache=cache, fuse=True).run()
        assert warm.cache_hits == len(warm)
        assert warm.fused_points == 0 and warm.pooled_points == 0
        assert json.dumps(cold.to_json(), sort_keys=True).replace(
            '"cached": false', '"cached": true') == json.dumps(
                warm.to_json(), sort_keys=True)


class TestProvenance:
    def test_fused_run_stats(self):
        plan = small_plan()   # 2 apps x 1 device x 3 sizes, one count
        result = SweepRunner(plan, cache=SweepCache(), fuse=True).run()
        assert result.fused_points == 6
        assert result.fused_groups == 2       # one per (app, device) chain
        assert result.pooled_points == 0
        assert result.spawned_pool is False   # nothing pooled, no pool
        for name in ("fused_points", "fused_groups", "pooled_points",
                     "spawned_pool"):
            assert name not in json.dumps(result.to_json())

    def test_unfused_parallel_run_spawns_pool(self):
        plan = small_plan(packet_sizes=(64, 256), packets_per_point=40)
        result = SweepRunner(plan, workers=2, cache=SweepCache(),
                             fuse=False).run()
        assert result.fused_points == 0
        assert result.pooled_points == 4
        assert result.spawned_pool is True

    def test_injected_executor_is_reused_not_owned(self):
        plan = small_plan(packet_sizes=(64, 256), packets_per_point=40)
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = SweepRunner(plan, workers=2, cache=SweepCache(),
                                fuse=False, executor=pool).run()
            second = SweepRunner(plan, workers=2, cache=SweepCache(),
                                 fuse=False, executor=pool).run()
            assert first.spawned_pool is False
            assert second.spawned_pool is False   # still alive, still usable
        assert result_bytes(first) == result_bytes(second)

    def test_engine_des_disables_fusing(self):
        plan = small_plan(packet_sizes=(64,), packets_per_point=40,
                          engine="des")
        result = SweepRunner(plan, cache=SweepCache(), fuse=True).run()
        assert result.fused_points == 0
        assert result.pooled_points == len(result)

    def test_engine_vector_on_unsupported_chain_still_raises(self,
                                                             monkeypatch):
        # The planner must route vector-on-unsupported to the per-point
        # path so the ConfigurationError surfaces instead of silently
        # batching a chain the kernel cannot model.
        import repro.sim.vector as vector_module

        monkeypatch.setattr(sweep_module, "chain_supports_vector",
                            lambda chain: False)
        monkeypatch.setattr(vector_module, "chain_supports_vector",
                            lambda chain: False)
        plan = small_plan(packet_sizes=(64,), packets_per_point=40,
                          engine="vector")
        with pytest.raises(ConfigurationError):
            SweepRunner(plan, cache=SweepCache(), fuse=True).run()

    def test_intra_run_dedup_survives_fusing(self):
        # device-a and device-a listed twice: same content keys, the
        # second copy must be served by dedup, not executed again.
        plan = small_plan(apps=(APP,), packet_sizes=(64, 64, 256),
                          packets_per_point=40)
        result = SweepRunner(plan, cache=SweepCache(), fuse=True).run()
        assert len(result) == 3
        assert result.fused_points == 2       # 64B executed once
        points = result.to_json()["points"]
        assert points[0]["throughput_gbps"] == points[1]["throughput_gbps"]
        assert points[0]["mean_latency_ns"] == points[1]["mean_latency_ns"]
