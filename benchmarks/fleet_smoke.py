"""Fleet least-loaded placement perf + exactness gate (``make bench-fleet-lpt``).

Runs the ``least-loaded`` policy of the fleet simulator
(:mod:`repro.runtime.fleet`) as a CI gate on the stock 1M-flow x
1,024-device snapshot:

* the round-blocked kernel behind :func:`assign_flows` must produce a
  **bit-exact** assignment against the per-flow heap oracle
  :func:`assign_flows_reference`, element for element;
* it must be **>= 3x faster** than the oracle, each side timed as the
  minimum of three runs.

Results land in ``BENCH_fleet_lpt.json`` at the repository root.

Run directly: ``PYTHONPATH=src python benchmarks/fleet_smoke.py``
"""

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.runtime.fleet import (  # noqa: E402
    FleetSimulation, FleetSpec, assign_flows, assign_flows_reference)

FLOWS = 1_000_000
DEVICES = 1_024
REPEATS = 3
SPEEDUP_FLOOR = 3.0


def _best_of(assign, simulation, out):
    """Minimum wall time of ``REPEATS`` least-loaded placements."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        assign("least-loaded", simulation.flow_rate_gbps, simulation.flow_hash,
               simulation.instance_capacity_gbps, out=out)
        times.append(time.perf_counter() - started)
    return min(times)


def main() -> int:
    simulation = FleetSimulation(FleetSpec(flow_count=FLOWS,
                                           device_count=DEVICES))
    kernel = np.empty(FLOWS, dtype=np.int64)
    oracle = np.empty(FLOWS, dtype=np.int64)
    kernel_s = _best_of(assign_flows, simulation, kernel)
    oracle_s = _best_of(assign_flows_reference, simulation, oracle)
    speedup = oracle_s / kernel_s
    mismatches = int((kernel != oracle).sum())

    baseline = {
        "config": {"flows": FLOWS, "devices": DEVICES, "repeats": REPEATS},
        "least_loaded": {
            "kernel_ms": round(kernel_s * 1e3, 3),
            "reference_ms": round(oracle_s * 1e3, 3),
            "speedup": round(speedup, 2),
        },
        "exactness": {"bit_exact": mismatches == 0,
                      "mismatched_flows": mismatches},
    }
    target = REPO_ROOT / "BENCH_fleet_lpt.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")

    failed = []
    if mismatches:
        failed.append(f"round-blocked kernel placed {mismatches} flows "
                      f"differently from the heap oracle")
    if speedup < SPEEDUP_FLOOR:
        failed.append(f"round-blocked kernel is only {speedup:.2f}x faster "
                      f"than the heap oracle (floor {SPEEDUP_FLOOR:.0f}x)")
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
