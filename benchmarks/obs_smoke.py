"""Observability overhead gates (``make bench-obs``).

Three gates keep the telemetry subsystem honest:

* **streaming** -- a fleet run with the flight recorder attached (full
  JSONL streamed to disk, bounded resident ring) must stay within
  1.25x of the same run untraced.  Streaming is the expensive mode;
  if it regresses, every ``--trace-out`` user pays.
* **quiet** -- a fleet run under a context with tracing *off* must stay
  within 10% of a bare run, same budget as ``perf_smoke``'s
  quiet-context gate.  The disabled bus is the everyday configuration.
* **deep spans** -- 20k begin/end pairs nested 64 deep must cost no
  more than 3x the same pairs at depth 1.  ``TraceBus.end`` resolves
  spans through an auxiliary membership set in amortized O(1); a
  regression to the old linear stack scan blows this ratio up
  quadratically and fails the gate immediately.
* **serve telemetry** -- a warm serving daemon with the full request
  observability stack (windowed telemetry, span ring, access log) must
  answer a small load run within 1.25x of a daemon with everything
  disabled.  The per-request fold is a handful of dict updates and one
  synchronous span burst; if it ever shows up against a warm cache hit
  (the cheapest request the daemon serves), the fold has grown a
  hidden O(n) somewhere.

Results land in ``BENCH_obs.json`` at the repository root;
``repro.cli report`` folds the file into the reproduction report.

Run directly: ``PYTHONPATH=src python benchmarks/obs_smoke.py``
"""

import json
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.recorder import FlightRecorder  # noqa: E402
from repro.runtime import SimContext  # noqa: E402
from repro.runtime.fleet import FleetSimulation, FleetSpec  # noqa: E402
from repro.runtime.trace import TraceBus  # noqa: E402
from repro.scenario import Scenario, WorkloadSpec  # noqa: E402
from repro.serve import (  # noqa: E402
    LoadGenerator,
    ServeConfig,
    serve_in_thread,
)

#: The fixed workload: a mid-size fleet scenario under all policies.
FLEET_SPEC = FleetSpec(flow_count=60_000, device_count=128)
RING = 4_096
REPEATS = 5

#: Gate budgets.
STREAMING_BUDGET = 1.25   # streamed-trace run vs untraced run
QUIET_BUDGET = 0.10       # tracing-off context vs bare run
DEEP_SPAN_BUDGET = 3.0    # nested begin/end vs flat begin/end
TELEMETRY_BUDGET = 1.25   # instrumented daemon vs bare daemon

#: Deep-span micro-gate shape.
SPAN_PAIRS = 20_000
DEPTH = 64

#: Serve-telemetry gate shape: warm cache hits, so the request fold is
#: the dominant per-request cost being measured.
SERVE_REQUESTS = 240
SERVE_CONCURRENCY = 4
SERVE_SCENARIO = Scenario(
    kind="sweep", apps=("sec-gateway",), devices=("device-a",),
    workload=WorkloadSpec(packet_sizes=(64,), packets_per_point=50))


def best_of(workload, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of ``workload()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


def _bare_run() -> None:
    FleetSimulation(FLEET_SPEC,
                    context=SimContext(name="obs-bare", trace=False)).run()


def _quiet_run() -> None:
    # Same as bare today, but kept as a separate gate: any future cost
    # added to the disabled bus shows up here first.
    FleetSimulation(FLEET_SPEC,
                    context=SimContext(name="obs-quiet", trace=False)).run()


def _streamed_run(path: str) -> None:
    context = SimContext(name="obs-stream", trace=True)
    with FlightRecorder(context.trace, path, ring=RING):
        FleetSimulation(FLEET_SPEC, context=context).run()


def _span_pairs(nested: bool) -> float:
    """Wall time for ``SPAN_PAIRS`` begin/end pairs, flat or nested."""
    bus = TraceBus(clock_ps=lambda: 0, enabled=True)
    start = time.perf_counter()
    if nested:
        # Keep DEPTH spans permanently open, then churn pairs at the
        # bottom of the stack -- the old linear `end` scan walked the
        # whole stack for every close.
        outer = [bus.begin(f"deep.level{level}") for level in range(DEPTH)]
        for index in range(SPAN_PAIRS):
            span = bus.begin("deep.leaf", index=index)
            bus.end(span)
        for span in reversed(outer):
            bus.end(span)
    else:
        for index in range(SPAN_PAIRS):
            span = bus.begin("flat.leaf", index=index)
            bus.end(span)
    return time.perf_counter() - start


def _serve_load(config: ServeConfig, repeats: int = 3) -> float:
    """Best-of wall time for the load run against one warm daemon."""
    body = json.dumps(SERVE_SCENARIO.to_json()).encode("utf-8")
    with serve_in_thread(config) as handle:
        load = LoadGenerator(handle.host, handle.port, [body],
                             endpoint="sweep")
        # One warm-up pass fills the sweep cache; every timed request
        # afterwards is a resident-cache hit.
        load.run(SERVE_CONCURRENCY, concurrency=SERVE_CONCURRENCY)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            report = load.run(SERVE_REQUESTS,
                              concurrency=SERVE_CONCURRENCY)
            best = min(best, time.perf_counter() - start)
            if report.ok != SERVE_REQUESTS:
                raise RuntimeError(
                    f"load run expected {SERVE_REQUESTS} OK responses, "
                    f"got {report.ok} ({report.errors[:3]})")
    return best


def _serve_telemetry_ratio(tmp: str) -> dict:
    bare_config = ServeConfig(port=0, telemetry=False, trace_ring=0)
    instrumented_config = ServeConfig(
        port=0, access_log=str(pathlib.Path(tmp) / "access.jsonl"))
    bare = _serve_load(bare_config)
    instrumented = _serve_load(instrumented_config)
    return {
        "serve_bare_s": round(bare, 6),
        "serve_instrumented_s": round(instrumented, 6),
        "telemetry_ratio": round(instrumented / bare, 4),
        "telemetry_requests": SERVE_REQUESTS,
    }


def run() -> dict:
    _bare_run()  # warm imports/caches outside the timing window
    bare = best_of(_bare_run)
    quiet = best_of(_quiet_run)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(pathlib.Path(tmp) / "fleet_trace.jsonl")
        streamed = best_of(lambda: _streamed_run(trace_path))
        trace_lines = sum(
            1 for _ in open(trace_path, encoding="utf-8"))
        serve = _serve_telemetry_ratio(tmp)
    flat = min(_span_pairs(nested=False) for _ in range(REPEATS))
    nested = min(_span_pairs(nested=True) for _ in range(REPEATS))
    return {
        **serve,
        "workload": f"fleet {FLEET_SPEC.flow_count:,} flows x "
                    f"{FLEET_SPEC.device_count} devices, ring {RING}",
        "bare_fleet_s": round(bare, 6),
        "quiet_fleet_s": round(quiet, 6),
        "streamed_fleet_s": round(streamed, 6),
        "quiet_overhead_fraction": round(quiet / bare - 1.0, 4),
        "streaming_ratio": round(streamed / bare, 4),
        "streamed_trace_lines": trace_lines,
        "flat_span_pairs_s": round(flat, 6),
        "nested_span_pairs_s": round(nested, 6),
        "deep_span_ratio": round(nested / flat, 4),
        "span_pairs": SPAN_PAIRS,
        "span_depth": DEPTH,
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_obs.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    failed = False
    if baseline["streaming_ratio"] > STREAMING_BUDGET:
        print(f"FAIL: streamed fleet run is {baseline['streaming_ratio']:.2f}x "
              f"the untraced run (budget {STREAMING_BUDGET:.2f}x)",
              file=sys.stderr)
        failed = True
    if baseline["quiet_overhead_fraction"] > QUIET_BUDGET:
        print(f"FAIL: tracing-off context adds "
              f"{baseline['quiet_overhead_fraction']:.1%} over a bare run "
              f"(budget {QUIET_BUDGET:.0%})", file=sys.stderr)
        failed = True
    if baseline["deep_span_ratio"] > DEEP_SPAN_BUDGET:
        print(f"FAIL: deeply-nested span pairs cost "
              f"{baseline['deep_span_ratio']:.2f}x flat pairs "
              f"(budget {DEEP_SPAN_BUDGET:.1f}x) -- TraceBus.end is no "
              f"longer amortized O(1)", file=sys.stderr)
        failed = True
    if baseline["telemetry_ratio"] > TELEMETRY_BUDGET:
        print(f"FAIL: fully-instrumented daemon answers warm load at "
              f"{baseline['telemetry_ratio']:.2f}x a bare daemon "
              f"(budget {TELEMETRY_BUDGET:.2f}x) -- the per-request "
              f"telemetry fold has grown", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
