"""The repository benchmark: four workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer
metrics.  Human-readable lines go to stderr and a metrics table to
stdout; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

import argparse
import compileall
import json
import os
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-hit", "serve-miss", "fleet-batch", "epoch-day")
#: Scratch space inside the checkout: daemon artifact stores, CLI
#: outputs, and the traced run's span files.
WORK_ROOT = os.path.join(ROOT, ".bench_run")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One workload's result; raises if its metric names are not the
    ones :mod:`perfbench.names` (and BENCHMARK.json) promise."""
    from perfbench import names

    result = _measure(workload, seed, seconds, trace)
    reported = {name: unit for name, (_, unit) in result["metrics"].items()}
    if reported != names.expected(trace):
        raise RuntimeError(f"{workload} reported {sorted(reported)}, "
                           f"expected {sorted(names.expected(trace))}")
    return result


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import batch, layers, serve

    work_dir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if trace:
            spans = os.path.join(WORK_ROOT,
                                 f"spans-{workload}-{seed}.jsonl")
            return layers.run(ROOT, workload, seed, work_dir, spans)
        if workload.startswith("serve-"):
            return serve.run(ROOT, workload, seed, seconds, work_dir)
        return batch.run(ROOT, workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _print_table(workload: str, result: dict) -> None:
    for line in result["notes"]:
        print(f"# {workload}: {line}", file=sys.stderr)
    print(f"{workload}: attempted={result['attempted']} "
          f"failed={result['failed']} error_rate="
          f"{result['failed'] / max(1, result['attempted']):.4f}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still unwinds, so every daemon it started is
    # stopped and reaped by the ``finally`` blocks that own it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    source = os.path.join(ROOT, "src", "repro", "cli.py")
    if not os.path.isfile(source):
        print(f"error: the program source ({source}) is missing; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    # The build step: byte-compile the program once, so no timed child
    # process pays for compiling a module on its first import.
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        print("error: the program source does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in selected:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        _print_table(workload, result)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, (value, unit) in result["metrics"].items():
            key = name if len(selected) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
