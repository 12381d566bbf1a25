"""Sweep-runner perf baseline (``make bench-sweep``).

Times one Fig-17/18-style multi-app x multi-device sweep four ways:

* ``serial_seed`` -- the seed's serial hot path: a fresh chain per
  point driven through the pinned
  :func:`repro.sim.pipeline.run_packet_sweep_reference` loop (the
  per-Transaction implementation preserved verbatim for exactly this
  comparison);
* ``parallel`` -- the :class:`repro.runtime.sweep.SweepRunner` with 4
  workers, a cold cache, and the fused planner disabled
  (``fuse=False``): every point fans out to the ProcessPool;
* ``fused`` -- the same runner with the fused planner on (the default):
  cache-miss points batch through the in-process vector kernel, no
  pool, no pickling;
* ``cached`` -- the runner re-run against the warm cache.

Results land in ``BENCH_sweep.json`` at the repository root;
``repro.cli report`` folds the file into the reproduction report.  The
script exits non-zero when the parallel run fails its >= 2.5x speedup
budget against the serial seed path, the fused run fails its >= 3x
budget against the per-point parallel run, the fused results are not
byte-identical to the per-point results, or the warm re-run fails its
>= 10x budget against the cold run.

Run directly: ``PYTHONPATH=src python benchmarks/sweep_smoke.py``
"""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_smoke import best_of  # noqa: E402

from repro.apps import application_by_name  # noqa: E402
from repro.platform.catalog import device_by_name  # noqa: E402
from repro.runtime.sweep import SweepCache, SweepRunner  # noqa: E402
from repro.scenario import Scenario, WorkloadSpec  # noqa: E402
from repro.sim.pipeline import run_packet_sweep_reference  # noqa: E402

#: The fixed workload: the three BITW apps of Figure 17 across three
#: catalog devices that can host all of them, over the paper's
#: packet-size axis.
APPS = ("sec-gateway", "layer4-lb", "host-network")
DEVICES = ("device-a", "device-b", "device-d")
PACKET_SIZES = (64, 128, 256, 512, 1024)
PACKETS_PER_POINT = 4_000
WORKERS = 4
REPEATS = 2

SCENARIO = Scenario(kind="sweep", apps=APPS, devices=DEVICES,
                    workload=WorkloadSpec(packet_sizes=PACKET_SIZES,
                                          packets_per_point=PACKETS_PER_POINT))


def serial_seed_sweep() -> list:
    """The pre-runner shape: every point serially, seed-style.

    Mirrors what ``CloudApplication.measure`` did before the overhaul --
    build the chain, then push one Transaction per packet through the
    reference loop.  No pool, no cache, no batch fast path.
    """
    results = []
    for app_name in APPS:
        app = application_by_name(app_name)
        for device_name in DEVICES:
            device = device_by_name(device_name)
            shell = app.tailored_shell(device)
            for size in PACKET_SIZES:
                chain = app.datapath(shell, True)
                results.append(run_packet_sweep_reference(
                    chain, packet_size_bytes=size,
                    packet_count=PACKETS_PER_POINT,
                ))
    return results


def run() -> dict:
    # Warm imports/catalog outside every timing window.
    cache = SweepCache()
    perpoint = SweepRunner(SCENARIO, workers=WORKERS, cache=cache,
                           fuse=False)
    fused = SweepRunner(SCENARIO, workers=WORKERS, cache=cache, fuse=True)
    serial_seed_sweep_points = len(fused.points)

    serial_s = best_of(serial_seed_sweep, REPEATS)

    def cold_perpoint():
        cache.clear()
        perpoint.run()

    cold_s = best_of(cold_perpoint, REPEATS)

    def cold_fused():
        cache.clear()
        fused.run()

    fused_s = best_of(cold_fused, REPEATS)

    # Exactness spot-check: the fused planner must be invisible in the
    # output -- byte-identical results from both cold paths.
    cache.clear()
    perpoint_result = perpoint.run()
    cache.clear()
    fused_result = fused.run()
    # Every *executed* point of this all-analytic grid must fuse (the
    # remainder dedup to shared content keys, not the pool).
    assert fused_result.pooled_points == 0 and fused_result.fused_points > 0
    exact = (json.dumps(fused_result.to_json(), sort_keys=True)
             == json.dumps(perpoint_result.to_json(), sort_keys=True))

    # Populate once, then time warm re-runs only.
    fused.run()
    warm_s = best_of(fused.run, REPEATS)

    result = fused.run()
    assert result.cache_hits == len(result), "warm run must be all hits"

    return {
        "workload": f"{len(APPS)} apps x {len(DEVICES)} devices x "
                    f"{len(PACKET_SIZES)} sizes x {PACKETS_PER_POINT} packets "
                    f"({serial_seed_sweep_points} points)",
        "workers": WORKERS,
        "serial_seed_s": round(serial_s, 6),
        "parallel_cold_s": round(cold_s, 6),
        "fused_cold_s": round(fused_s, 6),
        "cached_warm_s": round(warm_s, 6),
        "parallel_speedup": round(serial_s / cold_s, 3),
        "fused_speedup": round(cold_s / fused_s, 3),
        "fused_exact": exact,
        "fused_groups": fused_result.fused_groups,
        "cache_speedup": round(fused_s / warm_s, 3),
        "cache_entries": len(cache),
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_sweep.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    failed = False
    if baseline["parallel_speedup"] < 2.5:
        print(f"FAIL: parallel sweep only {baseline['parallel_speedup']:.2f}x "
              f"faster than the serial seed path (budget 2.5x)",
              file=sys.stderr)
        failed = True
    if baseline["fused_speedup"] < 3.0:
        print(f"FAIL: fused sweep only {baseline['fused_speedup']:.2f}x "
              f"faster than the per-point parallel path (budget 3x)",
              file=sys.stderr)
        failed = True
    if not baseline["fused_exact"]:
        print("FAIL: fused results are not byte-identical to per-point",
              file=sys.stderr)
        failed = True
    if baseline["cache_speedup"] < 10.0:
        print(f"FAIL: warm-cache re-run only {baseline['cache_speedup']:.2f}x "
              f"faster than the cold run (budget 10x)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
