"""Vector-kernel perf and exactness gate (``make bench-vector``).

Times one 100k-packet train through a real application datapath two
ways and checks the closed-form kernel against the scalar paths:

* ``scalar_batch`` -- :meth:`repro.sim.pipeline.PipelineChain.process_batch`,
  the optimised per-packet loop;
* ``vector`` -- :func:`repro.sim.vector.process_batch_vector`, the
  closed-form numpy kernel (cumsum + running maximum per stage).

Before timing, the bench spot-checks **exact equality**: the vector
sweep must reproduce :func:`repro.sim.pipeline.run_packet_sweep_reference`
bit for bit (throughput and latency floats, which derive from exact
integer per-packet completions) across several packet sizes, one at a
time and fused into a single multi-row batch; a mixed-size train and a
``(rows, packets)`` grid of mixed-size trains must match the
per-Transaction scalar loop packet for packet.  Results land in
``BENCH_vector.json`` at the repository root; ``repro.cli report``
folds the file into the reproduction report.  The
script exits non-zero when the kernel is < 10x faster than
``process_batch`` on the 100k-packet train or any equality check fails.

Run directly: ``PYTHONPATH=src python benchmarks/vector_smoke.py``
"""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_smoke import best_of  # noqa: E402

from repro.apps import application_by_name  # noqa: E402
from repro.platform.catalog import device_by_name  # noqa: E402
from repro.sim.pipeline import run_packet_sweep_reference  # noqa: E402
from repro.sim.vector import (  # noqa: E402
    process_batch_vector,
    run_packet_sweep_vector,
    run_packet_sweep_vector_batch,
    simulate_train,
    simulate_train_reference,
    simulate_trains,
)

APP_NAME = "sec-gateway"
DEVICE = "device-a"
TRAIN_PACKETS = 100_000
TRAIN_SIZE_BYTES = 512
SPOT_SIZES = (64, 256, 1024, 1500)
SPOT_PACKETS = 2_000
MIXED_ROWS = 4
REPEATS = 5


def _chain():
    app = application_by_name(APP_NAME)
    device = device_by_name(DEVICE)
    return app.datapath(app.tailored_shell(device), True)


def check_exactness() -> dict:
    """Exact-equality spot checks; raises AssertionError on any mismatch."""
    chain = _chain()
    references = []
    for size in SPOT_SIZES:
        expected = run_packet_sweep_reference(
            chain, packet_size_bytes=size, packet_count=SPOT_PACKETS)
        actual = run_packet_sweep_vector(
            chain, packet_size_bytes=size, packet_count=SPOT_PACKETS)
        assert actual == expected, (
            f"vector sweep diverged at {size}B: {actual} != {expected}")
        references.append(expected)
    fused = run_packet_sweep_vector_batch(chain, SPOT_SIZES, SPOT_PACKETS)
    assert fused == references, (
        f"fused sweep batch diverged: {fused} != {references}")

    # Mixed-size train: per-packet completions vs the scalar loop.
    import numpy as np
    rng = np.random.default_rng(7)
    sizes = rng.integers(64, 1500, size=512).tolist()
    arrivals = np.arange(512, dtype=np.int64) * 41_000
    chain.reset()
    expected_completions = simulate_train_reference(chain, arrivals.tolist(), sizes)
    chain.reset()
    timing = simulate_train(chain, arrivals, np.asarray(sizes, dtype=np.int64))
    actual_completions = timing.completed_ps.tolist()
    assert actual_completions == expected_completions, (
        "mixed-size train diverged from the scalar loop")

    # Per-packet sizes on a (rows, packets) grid, arriving densely enough
    # to queue behind stage occupancy: each row vs the scalar loop from a
    # reset chain.
    grid_sizes = rng.integers(64, 1500, size=(MIXED_ROWS, 256))
    grid_arrivals = np.cumsum(
        rng.integers(0, 4_000, size=(MIXED_ROWS, 256)), axis=1)
    chain.reset()
    batch = simulate_trains(chain, grid_arrivals, grid_sizes,
                            update_state=False)
    for row in range(MIXED_ROWS):
        chain.reset()
        expected_row = simulate_train_reference(
            chain, grid_arrivals[row].tolist(), grid_sizes[row].tolist())
        assert batch.completed_ps[row].tolist() == expected_row, (
            f"per-packet batch row {row} diverged from the scalar loop")
    return {
        "spot_sizes": list(SPOT_SIZES),
        "spot_packets": SPOT_PACKETS,
        "mixed_train_packets": len(sizes),
        "mixed_batch_rows": MIXED_ROWS,
    }


def run() -> dict:
    checks = check_exactness()
    chain = _chain()
    gap_ps = TRAIN_SIZE_BYTES * 8 / (chain.bandwidth_bps(TRAIN_SIZE_BYTES) * 0.98) * 1e12

    def scalar():
        chain.reset()
        chain.process_batch(TRAIN_SIZE_BYTES, gap_ps, 0, TRAIN_PACKETS)

    def vector():
        chain.reset()
        process_batch_vector(chain, TRAIN_SIZE_BYTES, gap_ps, 0, TRAIN_PACKETS)

    scalar_s = best_of(scalar, REPEATS)
    vector_s = best_of(vector, REPEATS)
    return {
        "workload": f"{APP_NAME}@{DEVICE}, {TRAIN_PACKETS} x "
                    f"{TRAIN_SIZE_BYTES}B packets",
        "exactness_checks": checks,
        "scalar_batch_s": round(scalar_s, 6),
        "vector_s": round(vector_s, 6),
        "vector_speedup": round(scalar_s / vector_s, 3),
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_vector.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    if baseline["vector_speedup"] < 10.0:
        print(f"FAIL: vector kernel only {baseline['vector_speedup']:.2f}x "
              f"faster than process_batch (budget 10x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
