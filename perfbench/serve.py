"""The two serving workloads: an open loop against the warm daemon.

``serve-hit`` replays a primed working set, so every request is a cache
or artifact read; ``serve-miss`` sends a stream of never-seen scenarios,
so every request runs a kernel and writes the cache or artifact store.
Both run the same schedule: three daemons in turn, each timed in
windows at a nominal rate for the median latency, then, on the last
one, a rising ladder of short steps for the highest rate that meets
the workload's latency limit.
"""

import gc
import math
import os
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench import check, loadgen, names, workloads
from perfbench.daemon import Daemon


@dataclass(frozen=True)
class ServeShape:
    """A serving workload's fixed load shape."""

    nominal_rps: float
    limit_ms: float          # latency limit on the tail percentile
    ladder_factor: float     # each ladder step is this much faster


#: The daemon, its threads and pool processes run on the generator's
#: CPU.  Every hand-off of a request then stays on one CPU, so none
#: waits for the host to schedule another idle vCPU.  Side by side on
#: a busy 2-core VM, 1 s window medians spread (IQR over median) 0.08-
#: 0.10 this way, against 0.30-0.48 with the daemon on the other CPU
#: and 0.30-0.54 with it free to migrate; misses: 0.10 against 0.16-
#: 0.23.  The nominal rates sit near 12% (hits) and 35% (misses) of
#: what that CPU saturates at, so a slow spell of the host stretches
#: each request but builds little queue: at twice the hit rate, slow
#: spells built queues of 10x the median.  The p90 limits sit well
#: above the p90 of an unsaturated step (3 ms and 12 ms), so the
#: ladder stops where queues start to build.
SHAPES = {
    "serve-hit": ServeShape(nominal_rps=100.0, limit_ms=20.0,
                            ladder_factor=1.5),
    "serve-miss": ServeShape(nominal_rps=40.0, limit_ms=60.0,
                             ladder_factor=1.4),
}

SETUPS = 3               # daemons per run; setup_s is their median
WARMUP_S = 1.0           # discarded nominal-rate traffic on each daemon
NOMINAL_SHARE = 0.75     # of --seconds, at the nominal rate, all daemons
WINDOW_REQUESTS = 100    # nominal traffic is timed in windows this large
LADDER_STEP_S = 1.0
MISS_CHECK_SHARE = 0.2   # share of miss responses checked byte-for-byte


class _Stream:
    """Hands out request bodies in order, across steps."""

    def __init__(self, body_at: Callable[[int], bytes]) -> None:
        self.body_at = body_at
        self.next = 0

    def take(self, count: int) -> List[int]:
        indices = list(range(self.next, self.next + count))
        self.next += count
        return indices


def prime_bodies(workload: str, seed: int) -> List[bytes]:
    if workload == "serve-hit":
        return workloads.hit_working_set(seed)
    return workloads.miss_priming()


Step = Tuple[float, List[loadgen.Sample], List[int]]


class _Driver:
    """Runs open-loop steps against one daemon, remembering every step."""

    def __init__(self, stream: _Stream, steps: List[Step]) -> None:
        self.stream = stream
        self.steps = steps
        self.daemon: Optional[Daemon] = None

    def step(self, rate: float, duration: float) -> Step:
        count = max(1, int(round(rate * duration)))
        indices = self.stream.take(count)
        bodies = [self.stream.body_at(index) for index in indices]
        daemon = self.daemon
        result = loadgen.run_open_loop(
            lambda i: daemon.post(bodies[i]), rate, count)
        self.steps.append((rate, result, indices))
        return self.steps[-1]


def run(root: str, workload: str, seed: int, seconds: float,
        work_dir: str) -> Dict:
    """One untraced run; returns metrics, counts and report lines.

    Each of :data:`SETUPS` daemons is started, primed, warmed up and
    timed at the nominal rate in windows; the last one then climbs the
    ladder.
    """
    shape = SHAPES[workload]
    notes: List[str] = []
    oracle = check.Oracle()
    primes = prime_bodies(workload, seed)
    if workload == "serve-hit":
        hit_expected = [oracle.expected_body(body) for body in primes]
        sequence = workloads.hit_sequence(seed, len(primes), 200_000)
        stream = _Stream(lambda index: primes[sequence[index]])
    else:
        stream = _Stream(lambda index: workloads.miss_request(seed, index))
    per_daemon = seconds * NOMINAL_SHARE / SETUPS
    window_count = max(1, round(per_daemon * shape.nominal_rps
                                / WINDOW_REQUESTS))

    setups: List[float] = []
    steps: List[Step] = []
    windows: List[Step] = []
    driver = _Driver(stream, steps)
    attempted = failed = 0
    for attempt in range(SETUPS):
        artifact_dir = None
        if workload == "serve-miss":
            artifact_dir = os.path.join(work_dir, f"artifacts-{attempt}")
        daemon = Daemon(root, artifact_dir=artifact_dir,
                        cpus={loadgen.generator_cpu_id()})
        driver.daemon = daemon
        try:
            began = time.perf_counter()
            daemon.start()
            for body in primes:
                failed += daemon.post(body)[0] != 200
            attempted += len(primes)
            setups.append(time.perf_counter() - began)
            with _quiet_generator():
                driver.step(shape.nominal_rps, WARMUP_S)
                for _ in range(window_count):
                    windows.append(driver.step(shape.nominal_rps,
                                               per_daemon / window_count))
                if attempt == SETUPS - 1:
                    ladder = _climb(driver, shape,
                                    seconds * (1 - NOMINAL_SHARE))
        finally:
            daemon.stop()

    # Correctness, after timing so the checks do not load the machine.
    if workload == "serve-hit":
        def ok_for(indices):
            return lambda sample: (
                sample.status == 200 and sample.body
                == hit_expected[sequence[indices[sample.index]]])
    else:
        verdict = _check_miss(oracle, seed, steps, notes)

        def ok_for(indices):
            return lambda sample: verdict[indices[sample.index]]

    for _, result, indices in steps:
        ok = ok_for(indices)
        attempted += len(result)
        failed += sum(1 for sample in result if not ok(sample))

    def report(step: Step) -> loadgen.StepReport:
        rate, result, indices = step
        return loadgen.step_report(rate, result, ok_for(indices),
                                   shape.limit_ms)

    nominal = [report(step) for step in windows]
    rungs = [nominal[-1]] + [report(step) for step in ladder]
    max_rate = max_sustained_rate(rungs, shape.limit_ms)

    notes.append(f"setup runs (s): {', '.join(f'{v:.3f}' for v in setups)}")
    notes.append(f"nominal window medians (ms): "
                 f"{', '.join(f'{r.p50_ms:.3f}' for r in nominal)}")
    for rung in nominal[:-1] + rungs:
        notes.append(
            f"step {rung.rate:7.1f} rps: n={rung.samples} "
            f"p50={rung.p50_ms:.2f}ms p{rung.tail_pct:g}="
            f"{rung.tail_ms:.2f}ms p99={rung.p99_ms:.2f}ms "
            f"late p50={rung.late_p50_ms:.2f}ms "
            f"max={rung.late_max_ms:.1f}ms "
            f"achieved={rung.achieved_rps:.1f}rps failed={rung.failed} "
            f"{'meets' if rung.meets(shape.limit_ms) else 'misses'} "
            f"{shape.limit_ms:g}ms")
    notes.append(f"highest rate meeting the {shape.limit_ms:g} ms tail "
                 f"limit: {max_rate:.1f} rps (reported, not gated)")
    return {
        "metrics": metrics(setups, [r.p50_ms for r in nominal],
                           daemon.peak_rss_mb),
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
    }


@contextmanager
def _quiet_generator() -> Iterator[None]:
    """The generator on its own CPU, with its garbage collector off."""
    gc.collect()
    gc.disable()
    try:
        with loadgen.generator_cpu():
            yield
    finally:
        gc.enable()


def _climb(driver: _Driver, shape: ServeShape,
           seconds: float) -> List[Step]:
    """The ladder: ever faster steps until one misses the limit twice.

    Returns the final attempt at each rate.
    """
    ladder: List[Step] = []
    deadline = time.perf_counter() + seconds
    rate = shape.nominal_rps
    met = True
    while met and time.perf_counter() < deadline:
        rate *= shape.ladder_factor
        for _ in range(2):   # a step that misses gets one more try
            last = driver.step(rate, LADDER_STEP_S)
            met = loadgen.step_report(
                rate, last[1], lambda sample: sample.status == 200,
                shape.limit_ms).meets(shape.limit_ms)
            if met:
                break
        ladder.append(last)
    return ladder


def nominal_p50(window_medians: List[float]) -> float:
    """``latency_p50_ms``: the median of the nominal windows' medians.

    The windows are spread over every daemon of the run, so a slow
    spell of the host moves this figure only if it covers most of the
    run, and neither does an odd fast window; a change to the program
    moves every window.
    """
    return statistics.median(window_medians)


def metrics(setups: List[float], window_medians: List[float],
            peak_rss_mb: float) -> Dict:
    """The end-to-end metrics of a serving run, name -> (value, unit)."""
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": nominal_p50(window_medians),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit)
            for name, unit in names.END_TO_END.items()}


def max_sustained_rate(steps: List[loadgen.StepReport],
                       limit_ms: float) -> float:
    """The highest rate that meets the latency limit, interpolated.

    ``steps`` run in rising rate order.  Between the last step that
    meets the limit and the next step, which does not, the crossing is
    interpolated on log tail latency, so the figure moves smoothly
    rather than in ladder steps.  A next step with failed requests puts
    the crossing at the last passing rate.  When no step meets the
    limit, the lowest rate is scaled down by how far its tail overshoots.
    """
    passing = None
    for report in steps:
        if report.meets(limit_ms):
            passing = report
        elif passing is not None:
            if report.failed:
                return passing.rate
            span = math.log(max(report.tail_ms, limit_ms) / passing.tail_ms)
            share = math.log(limit_ms / passing.tail_ms) / span
            return passing.rate + (report.rate - passing.rate) * share
    if passing is None:
        lowest = steps[0]
        return lowest.rate * min(1.0, limit_ms / lowest.tail_ms)
    return passing.rate


def _check_miss(oracle: check.Oracle, seed: int, steps: List[Step],
                notes: List[str]) -> Dict[int, bool]:
    """Verdict per miss request index: status, identity, sampled bytes.

    Every response must be a 200 naming the request's scenario id with
    exit code 0; a seeded share of responses, of every kind, must also
    equal the in-process response byte-for-byte.
    """
    rng = random.Random(f"serve-miss-check/{seed}")
    verdict: Dict[int, bool] = {}
    checked = 0
    sent = [(sample, indices[sample.index])
            for _, result, indices in steps for sample in result]
    for sample, index in sent:
        body = workloads.miss_request(seed, index)
        compare = rng.random() < MISS_CHECK_SHARE
        if sample.status != 200 or not oracle.names_scenario(body,
                                                             sample.body):
            verdict[index] = False
        elif compare:
            checked += 1
            verdict[index] = sample.body == oracle.expected_body(body)
        else:
            verdict[index] = True
    notes.append(f"miss responses compared byte-for-byte: {checked} of "
                 f"{len(verdict)}")
    return verdict

