"""The two batch workloads: one ``repro.cli fleet`` process per sample.

``fleet-batch`` places a 1M-flow snapshot on 1,024 devices under all
three policies; ``epoch-day`` runs a 288-epoch orchestrated day.  Each
sample is a fresh CLI process, so a sample's wall time is what an
operator waits for, interpreter start included.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from perfbench import check, loadgen, names, workloads
from perfbench.daemon import child_env

SETUPS = 5            # interpreter + import probes per run; setup_s is their median
MIN_SAMPLES = 3
CLI_TIMEOUT_S = 120.0


def scenario_for(workload: str, seed: int) -> Dict:
    if workload == "fleet-batch":
        return workloads.fleet_scenario(seed)
    return workloads.day_scenario(seed)


def timed_child(root: str, args: List[str]) -> Tuple[float, int, float]:
    """Run ``python args...``; returns (wall s, exit code, peak RSS MB).

    A child still running after :data:`CLI_TIMEOUT_S`, or when this
    process is interrupted, is killed and reaped.
    """
    began = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + args, cwd=root,
                            env=child_env(root), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    pid = 0
    try:
        while not pid and time.perf_counter() - began < CLI_TIMEOUT_S:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if not pid:
                time.sleep(0.002)
    finally:
        if not pid:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def import_seconds(root: str) -> float:
    """Interpreter start plus ``import repro.cli``: every CLI run pays it."""
    wall, code, _ = timed_child(root, ["-c", "import repro.cli"])
    if code != 0:
        raise RuntimeError("import repro.cli failed")
    return wall


def run(root: str, workload: str, seed: int, seconds: float,
        work_dir: str) -> Dict:
    """One untraced run; returns metrics, counts and report lines."""
    scenario = scenario_for(workload, seed)
    scenario_path = os.path.join(work_dir, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as handle:
        json.dump(scenario, handle)

    setups = [import_seconds(root) for _ in range(SETUPS)]

    walls: List[float] = []
    codes: List[int] = []
    rss: List[float] = []
    outputs: List[str] = []
    began = time.perf_counter()
    while (len(walls) < MIN_SAMPLES
           or time.perf_counter() - began < seconds):
        out_path = os.path.join(work_dir, f"out-{len(walls)}.json")
        wall, code, peak = timed_child(
            root, ["-m", "repro.cli", "fleet", "--scenario", scenario_path,
                   "--json", out_path])
        walls.append(wall)
        codes.append(code)
        rss.append(peak)
        outputs.append(out_path)

    # Correctness, after timing: every output equals the in-process
    # payload (and therefore every other output) once elapsed_s is gone.
    expected = check.Oracle.fleet_payload(scenario)
    failed = 0
    for code, path in zip(codes, outputs):
        if code != 0 or not os.path.exists(path):
            failed += 1
            continue
        with open(path, encoding="utf-8") as handle:
            produced = check.canonical(check.strip_wall_clock(
                json.load(handle)))
        failed += produced != expected

    notes = [
        f"setup runs (s): {', '.join(f'{v:.3f}' for v in setups)}",
        f"CLI walls (s): {', '.join(f'{v:.3f}' for v in walls)}",
        f"samples={len(walls)}",
    ]
    return {
        "metrics": metrics(setups, walls, rss),
        "attempted": len(walls),
        "failed": failed,
        "notes": notes,
    }


def metrics(setups: List[float], walls: List[float],
            rss: List[float]) -> Dict:
    """The end-to-end metrics of a batch run, name -> (value, unit).

    An operation is one CLI invocation: its latency is the process wall
    time, interpreter start included.
    """
    walls_ms = [wall * 1e3 for wall in walls]
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": loadgen.percentile(walls_ms, 0.5),
        "peak_rss_mb": max(rss),
    }
    return {name: (values[name], unit)
            for name, unit in names.END_TO_END.items()}
