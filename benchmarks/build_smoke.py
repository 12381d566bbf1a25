"""Build-farm perf baseline (``make bench-build``).

Builds the production fleet's device x role matrix for **every
deployment year 2020-2024** -- the nightly-rebuild shape a real farm
serves as the fleet evolves -- three ways:

* ``naive_serial`` -- the pre-farm shape: every (device, role) target
  tailored and compiled independently with ``BuildFlow.compile``; no
  shell memoisation, no content-addressed dedup, no artifact store, so
  every year recompiles every variant from scratch;
* ``farm_cold`` -- the :class:`repro.runtime.buildfarm.BuildFarm` with
  4 workers running the same five yearly matrices *incrementally*
  against one cold content-addressed store: device variants collapse
  onto one compile and later years reuse earlier years' artifacts;
* ``farm_warm`` -- the same five matrices re-run against the warm
  store (every build served from disk).

The farm's speedup on this machine comes from its reuse layers --
content-addressed artifacts, intra-run dedup, tailor memoisation --
which is why the gate holds at any CPU count; with multiple cores the
worker pool multiplies it further.

A determinism gate also diffs the 2024 matrix's manifests built with
``workers=1`` against ``workers=4``: they must be byte-identical.

Results land in ``BENCH_build.json`` at the repository root;
``repro.cli report`` folds the file into the reproduction report.  The
script exits non-zero when the cold farm fails its >= 3x budget
against the naive serial rebuild, the warm re-run fails its >= 10x
budget against the cold farm, or the determinism diff fails.

Run directly: ``PYTHONPATH=src python benchmarks/build_smoke.py``
"""

import json
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_smoke import best_of  # noqa: E402

from repro.adapters.toolchain import BuildFlow  # noqa: E402
from repro.apps import application_by_name  # noqa: E402
from repro.errors import HarmoniaError  # noqa: E402
from repro.platform.catalog import resolve_device  # noqa: E402
from repro.runtime.buildfarm import (  # noqa: E402
    ArtifactStore,
    BuildFarm,
    fleet_build_plan,
)
from repro.scenario import BuildSpec  # noqa: E402

YEARS = (2020, 2021, 2022, 2023, 2024)
WORKERS = 4
REPEATS = 2
#: Modelled CAD compile effort: high enough that the xorshift compile
#: loop dominates tailoring/packaging, low enough to keep the whole
#: benchmark under a couple of minutes.
EFFORT = 1_000

PLANS = {year: fleet_build_plan(year, build=BuildSpec(effort=EFFORT))
         for year in YEARS}


def naive_serial() -> int:
    """Seed-style rebuild: every target compiled independently.

    Mirrors what shipping a fleet looked like before the farm: iterate
    the matrix, tailor, run the four-step flow -- recompiling the same
    tailored shell for every device variant and every year it stays in
    the fleet.  Incompatible and unfit pairs are skipped, exactly as
    the farm classifies them.
    """
    compiles = 0
    for year in YEARS:
        plan = PLANS[year]
        for target in plan.expand():
            device = resolve_device(target.device)
            app = application_by_name(target.role)
            try:
                shell = app.tailored_shell(device)
                BuildFlow(device).compile(
                    f"{target.role}-{device.name}", shell.modules(),
                    extra_resources=app.role().resources,
                    effort=EFFORT)
            except HarmoniaError:
                continue
            compiles += 1
    return compiles


def farm_all_years(store: ArtifactStore, workers: int = WORKERS) -> dict:
    """Run the five yearly matrices incrementally against one store."""
    counts = {"built": 0, "cached": 0, "shared": 0}
    for year in YEARS:
        report = BuildFarm(PLANS[year], workers=workers, store=store).run()
        for status in counts:
            counts[status] += report.count(status)
    return counts


def run() -> dict:
    naive_compiles = naive_serial()          # warm imports + count once
    naive_s = best_of(naive_serial, REPEATS)

    store_dir = tempfile.mkdtemp(prefix="buildfarm-bench-")
    try:
        def cold():
            shutil.rmtree(store_dir, ignore_errors=True)
            return farm_all_years(ArtifactStore(store_dir))

        cold_s = best_of(cold, REPEATS)
        cold_counts = cold()
        # The store is now fully warm; time pure re-runs.
        warm_s = best_of(lambda: farm_all_years(ArtifactStore(store_dir)),
                         REPEATS)
        warm_counts = farm_all_years(ArtifactStore(store_dir))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    serial_manifests = BuildFarm(PLANS[2024], workers=1).run().manifests_jsonl()
    pooled_manifests = BuildFarm(PLANS[2024],
                                 workers=WORKERS).run().manifests_jsonl()

    return {
        "workload": f"{len(YEARS)} fleet years x 5 roles "
                    f"({sum(len(PLANS[y]) for y in YEARS)} targets, "
                    f"effort {EFFORT})",
        "workers": WORKERS,
        "naive_compiles": naive_compiles,
        "farm_unique_builds": cold_counts["built"],
        "naive_serial_s": round(naive_s, 6),
        "farm_cold_s": round(cold_s, 6),
        "farm_warm_s": round(warm_s, 6),
        "farm_speedup": round(naive_s / cold_s, 3),
        "warm_speedup": round(cold_s / warm_s, 3),
        "warm_cached_targets": warm_counts["cached"],
        "deterministic_across_workers": serial_manifests == pooled_manifests,
    }


def main() -> int:
    baseline = run()
    target = REPO_ROOT / "BENCH_build.json"
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
    print(f"\nwrote {target}")
    failed = False
    if baseline["farm_speedup"] < 3.0:
        print(f"FAIL: cold farm only {baseline['farm_speedup']:.2f}x faster "
              f"than the naive serial rebuild (budget 3x)", file=sys.stderr)
        failed = True
    if baseline["warm_speedup"] < 10.0:
        print(f"FAIL: warm re-run only {baseline['warm_speedup']:.2f}x faster "
              f"than the cold farm (budget 10x)", file=sys.stderr)
        failed = True
    if not baseline["deterministic_across_workers"]:
        print("FAIL: manifests differ between workers=1 and workers=4",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
