"""The traced run: per-layer figures from spans around public calls.

Every traced run profiles every layer, so each workload's trace output
carries the whole table:

* the serving layers (``serve``, ``scenario``, ``runtime.sweep``,
  ``sim.vector``, ``sim`` DES, ``runtime.buildfarm``, ``service``) on
  the workload's own traffic -- miss traffic for ``serve-miss``, the
  primed hit working set otherwise.  Requests go one at a time, so the
  daemon's counters repeat exactly for a seed.  Each request is sent to
  the daemon over HTTP and then decomposed in-process into the public
  calls the daemon makes, each inside a benchmark span;
* the fleet layers (``runtime.fleet``, ``runtime.orchestrator``) on the
  seed's 1M-flow snapshot and 288-epoch day;
* ``cli`` import cost in child interpreters, and ``obs`` (this
  recorder's own overhead).

No span is recorded inside the program: the recorder wraps calls from
the outside.
"""

import json
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

from perfbench import batch, check, loadgen, names, serve, workloads
from perfbench.daemon import Daemon
from perfbench.spans import SpanRecorder

HIT_REPLAY = 300         # hit requests replayed after priming
MISS_REPLAY = 120        # miss requests replayed after priming
DES_SAMPLE = 8           # forced-DES points timed when traffic has none
OPEN_LOOP_S = 2.0        # the generator-lateness step
IMPORT_PROBES = 3
OVERHEAD_ROUNDS = 15
OVERHEAD_REPEATS = 3     # passes over the working set per timed replay

#: Timed metrics: metric -> (span name, ns per unit).  The value is the
#: median self time of every span with that name.
_SPAN_METRICS = {
    "scenario.parse_us": ("scenario.parse", 1e3),
    "scenario.id_us": ("scenario.id", 1e3),
    "sweep.key_us": ("sweep.key", 1e3),
    "sweep.probe_us": ("sweep.probe", 1e3),
    "sweep.store_us": ("sweep.store", 1e3),
    "vector.fused_ms": ("vector.fused", 1e6),
    "des.point_ms": ("des.point", 1e6),
    "build.cold_ms": ("build.cold", 1e6),
    "build.warm_us": ("build.warm", 1e3),
    "service.run_us": ("service.run", 1e3),
    "service.serialize_us": ("service.serialize", 1e3),
    "fleet.setup_ms": ("fleet.setup", 1e6),
    "fleet.serialize_ms": ("fleet.serialize", 1e6),
    "orchestrator.setup_ms": ("orchestrator.setup", 1e6),
    "orchestrator.serialize_ms": ("orchestrator.serialize", 1e6),
}


class ServeProfile:
    """Send each request to the daemon, then decompose it in-process."""

    def __init__(self, recorder: SpanRecorder, daemon: Daemon) -> None:
        self.rec = recorder
        self.daemon = daemon
        # Two in-process states that follow the daemon request by
        # request: one fed the public calls, one span each; one fed
        # run_scenario only, so it is cold exactly when the daemon was.
        self.layered = check.Oracle()
        self.daemon_state = check.Oracle()
        self.counting = False
        self.probed = self.hits = 0
        self.fused_packets = 0
        self.fused_ns = 0
        self.overhead_ms: List[float] = []
        self.failed = 0
        self.attempted = 0

    def request(self, request_id: str, body: bytes) -> None:
        from repro.scenario import Scenario
        from repro.service import run_build_service, run_scenario

        rec = self.rec
        self.attempted += 1
        with rec.span("request", request=request_id):
            with rec.span("serve.http") as http:
                status, served = self.daemon.post(body)
            with rec.span("scenario.parse"):
                scenario = Scenario.from_json(json.loads(body))
            with rec.span("scenario.id"):
                scenario.scenario_id()
            if scenario.kind == "sweep":
                self._sweep(scenario)
            else:
                with rec.span("build.run") as span:
                    outcome = run_build_service(scenario,
                                                store=self.layered.store)
                if outcome.result.built:
                    # Cold: time the same target again, now primed.
                    span.name = "build.cold"
                    with rec.span("build.warm"):
                        run_build_service(scenario, store=self.layered.store)
                else:
                    span.name = "build.warm"
            with rec.span("service.run.daemon_state") as cold:
                run_scenario(scenario, cache=self.daemon_state.cache,
                             store=self.daemon_state.store)
            with rec.span("service.run"):
                outcome = run_scenario(scenario, cache=self.layered.cache,
                                       store=self.layered.store)
            with rec.span("service.serialize") as serialize:
                text = outcome.response_text()
        if status != 200 or served != text.encode("utf-8"):
            self.failed += 1
        if self.counting:
            self.overhead_ms.append(
                (http.duration_ns - cold.duration_ns
                 - serialize.duration_ns) / 1e6)

    def _sweep(self, scenario) -> None:
        from repro.runtime.sweep import (chain_signature, partition_fusable,
                                         point_chain, run_fused_group,
                                         run_point, sweep_cache_key)

        rec = self.rec
        cache = self.layered.cache
        with rec.span("sweep.key"):
            points = scenario.expand_points()
            keys = []
            for point in points:
                chain = point_chain(point)
                keys.append(sweep_cache_key(
                    chain_signature(chain), point.packet_size_bytes,
                    point.packet_count,
                    trace_of=chain.name if point.trace else None))
        with rec.span("sweep.probe"):
            entries = cache.lookup_many(keys, [p.trace for p in points])
        pending = [index for index, entry in enumerate(entries)
                   if entry is None]
        if self.counting:
            self.probed += len(points)
            self.hits += len(points) - len(pending)
        if not pending:
            return
        with rec.span("vector.fused") as fused:
            groups, pooled = partition_fusable(points, pending)
            for indices in groups.values():
                for index, entry in zip(indices,
                                        run_fused_group(points, indices)):
                    entries[index] = entry
        if not groups:
            fused.name = "vector.partition"   # nothing ran on the kernel
        else:
            self.fused_ns += fused.duration_ns
            self.fused_packets += sum(points[i].packet_count
                                      for group in groups.values()
                                      for i in group)
        # Priming DES points are tiny; only the traffic's own are timed
        # as the DES layer.
        des_span = "des.point" if self.counting else "des.priming"
        for index in pooled:
            with rec.span(des_span):
                entries[index] = run_point(points[index])
        with rec.span("sweep.store"):
            cache.store_many((keys[index], entries[index])
                             for index in pending)

    def forced_des(self, bodies: List[bytes]) -> None:
        """Time ``run_point`` on forced-DES copies of sampled points."""
        import dataclasses

        from repro.runtime.sweep import run_point
        from repro.scenario import Scenario

        scenarios = [Scenario.from_json(json.loads(body)) for body in bodies]
        points = [point for scenario in scenarios if scenario.kind == "sweep"
                  for point in scenario.expand_points()]
        for point in points[:DES_SAMPLE]:
            point = dataclasses.replace(
                point, engine="des", packet_count=workloads.DES_PACKETS)
            with self.rec.span("des.point", request="forced-des"):
                run_point(point)


def _serve_phase(root: str, traffic: str, seed: int, work_dir: str,
                 rec: SpanRecorder, values: Dict) -> Tuple[int, int]:
    artifact_dir = (os.path.join(work_dir, "artifacts")
                    if traffic == "serve-miss" else None)
    daemon = Daemon(root, artifact_dir=artifact_dir,
                    cpus={loadgen.generator_cpu_id()})
    daemon.start()
    try:
        profile = ServeProfile(rec, daemon)
        primes = serve.prime_bodies(traffic, seed)
        for index, body in enumerate(primes):
            profile.request(f"prime-{index}", body)
        if traffic == "serve-miss":
            replay = [workloads.miss_request(seed, index)
                      for index in range(MISS_REPLAY)]
        else:
            sequence = workloads.hit_sequence(seed, len(primes), HIT_REPLAY)
            replay = [primes[index] for index in sequence]
        profile.counting = True
        for index, body in enumerate(replay):
            profile.request(f"req-{index}", body)
        if "des.point" not in rec.by_name():
            profile.forced_des(replay)

        stats = daemon.stats()
        metrics = stats["metrics"]["serve"]
        wall = metrics["request"]["wall_ps"]
        values["sweep.hit_ratio"] = (profile.hits / profile.probed
                                     if profile.probed else 0.0)
        values["sweep.probed_points"] = profile.probed
        values["sweep.evictions"] = stats["cache"]["evictions"]
        values["sweep.fused_points"] = metrics.get("sweep", {}).get(
            "fused_points", 0)
        values["sweep.fused_groups"] = metrics.get("sweep", {}).get(
            "fused_groups", 0)
        values["serve.pool_dispatches"] = metrics.get("pool", {}).get(
            "dispatches", 0)
        values["serve.daemon_p50_ms"] = wall["p50_ps"] / 1e9
        values["serve.daemon_p99_ms"] = wall["p99_ps"] / 1e9
        values["serve.shed"] = stats["admission"]["shed"]
        values["serve.quota_rejections"] = stats["admission"][
            "quota_rejections"]
        values["serve.coalesce_attached"] = stats["coalescer"]["attached"]
        values["serve.overhead_ms"] = statistics.median(profile.overhead_ms)
        values["vector.packets_per_s"] = (
            profile.fused_packets / (profile.fused_ns / 1e9)
            if profile.fused_ns else 0.0)

        rate = serve.SHAPES[traffic].nominal_rps
        with loadgen.generator_cpu():
            samples = loadgen.run_open_loop(
                lambda index: daemon.post(replay[index % len(replay)]),
                rate, int(rate * OPEN_LOOP_S))
        values["bench.generator_late_ms"] = loadgen.percentile(
            [sample.late_s * 1e3 for sample in samples], 0.5)
        failed = profile.failed + sum(1 for sample in samples
                                      if sample.status != 200)
        return profile.attempted + len(samples), failed
    finally:
        daemon.stop()


def _fleet_phase(seed: int, rec: SpanRecorder, values: Dict) -> None:
    from repro.runtime.context import SimContext
    from repro.runtime.fleet import (POLICIES, FleetResult, FleetSimulation,
                                     FleetSpec)
    from repro.runtime.orchestrator import Orchestrator
    from repro.scenario import Scenario

    scenario = Scenario.from_json(workloads.fleet_scenario(seed))
    with rec.span("fleet", request="fleet"):
        with rec.span("fleet.setup"):
            simulation = FleetSimulation(
                FleetSpec.from_scenario(scenario),
                context=SimContext(name="fleet", trace=True))
        for policy in POLICIES:
            with rec.span(f"fleet.assign.{policy}") as span:
                simulation.assignment(policy)
            values[f"fleet.assign_ms.{policy}"] = span.duration_ns / 1e6
        results = []
        for policy in POLICIES:
            with rec.span(f"fleet.policy.{policy}") as span:
                results.append(simulation.run_policy(policy))
            values[f"fleet.policy_ms.{policy}"] = span.duration_ns / 1e6
        result = FleetResult(
            spec=simulation.spec,
            total_capacity_gbps=simulation.total_capacity_gbps,
            offered_gbps=simulation.offered_gbps,
            effective_offered_gbps=simulation.effective_offered_gbps,
            groups=simulation.groups, policies=tuple(results))
        with rec.span("fleet.serialize"):
            json.dumps(result.to_json())

    day = Scenario.from_json(workloads.day_scenario(seed))
    with rec.span("orchestrator", request="epoch-day"):
        with rec.span("orchestrator.setup"):
            orchestrator = Orchestrator.from_scenario(
                day, context=SimContext(name="orchestrator", trace=True))
        with rec.span("orchestrator.run") as span:
            outcome = orchestrator.run()
        values["orchestrator.epoch_ms"] = (
            span.duration_ns / 1e6 / outcome.spec.epochs)
        with rec.span("orchestrator.serialize"):
            json.dumps(outcome.to_json())


def _import_ms(root: str) -> float:
    """``import repro.cli`` cost: CLI import minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(batch.timed_child(root, ["-c", "pass"])[0])
        full.append(batch.import_seconds(root))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def _trace_overhead(bodies: List[bytes]) -> float:
    """Recorder overhead: the warm in-process path with spans on vs off.

    Short replays alternate on and off; the ratio of the fastest of each
    keeps the machine's own slow spells out of the comparison.
    """
    from repro.scenario import Scenario
    from repro.service import run_scenario

    mirror = check.Oracle()
    for body in bodies:
        run_scenario(Scenario.from_json(json.loads(body)),
                     cache=mirror.cache, store=mirror.store)

    def replay(rec: SpanRecorder) -> float:
        began = time.perf_counter()
        for index, body in enumerate(bodies * OVERHEAD_REPEATS):
            with rec.span("request", request=f"req-{index}"):
                with rec.span("scenario.parse"):
                    scenario = Scenario.from_json(json.loads(body))
                with rec.span("service.run"):
                    outcome = run_scenario(scenario, cache=mirror.cache,
                                           store=mirror.store)
                with rec.span("service.serialize"):
                    outcome.response_text()
        return time.perf_counter() - began

    replay(SpanRecorder(enabled=False))      # warm the memos
    on, off = [], []
    for round_index in range(OVERHEAD_ROUNDS):
        for enabled in (round_index % 2 == 0, round_index % 2 == 1):
            (on if enabled else off).append(
                replay(SpanRecorder(enabled=enabled)))
    return min(on) / min(off) - 1.0


def run(root: str, workload: str, seed: int, work_dir: str,
        spans_path: Optional[str]) -> Dict:
    """One traced run; returns every per-layer metric with counts."""
    rec = SpanRecorder()
    values: Dict[str, float] = {}
    traffic = "serve-miss" if workload == "serve-miss" else "serve-hit"
    attempted, failed = _serve_phase(root, traffic, seed, work_dir, rec,
                                     values)
    _fleet_phase(seed, rec, values)
    values["cli.import_ms"] = _import_ms(root)
    hit_bodies = workloads.hit_working_set(seed)
    values["obs.trace_overhead_frac"] = _trace_overhead(hit_bodies)

    table = rec.by_name()
    for metric, (span_name, scale) in _SPAN_METRICS.items():
        times = table.get(span_name)
        values[metric] = statistics.median(times) / scale if times else 0.0
    if spans_path is not None:
        rec.write_jsonl(spans_path)

    notes = [f"{name}: spans={len(times)} median self="
             f"{statistics.median(times) / 1e3:.1f}us"
             for name, times in sorted(table.items())]
    return {
        "metrics": {name: (values[name], unit)
                    for name, unit in names.PER_LAYER.items()},
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
    }

