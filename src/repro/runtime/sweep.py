"""Parallel sweep runner with content-keyed result caching.

Every headline figure of the paper (Figs 10, 16, 17, 18) is a sweep of
independent (application x device x packet-size) points through the same
deterministic pipeline models.  Independence is the whole trick -- the
same shape SYNERGY exploits by treating FPGA workloads as schedulable
units and Funky by fanning them across isolated executors -- so this
module does the simulation-side equivalent:

* a sweep-kind :class:`repro.scenario.Scenario` expands into
  independent :class:`SweepPoint`\\ s
  (:meth:`~repro.scenario.Scenario.expand_points`);
* a :class:`SweepRunner` executes them across a
  ``concurrent.futures.ProcessPoolExecutor`` (``workers=1`` falls back
  to an in-process serial loop with no pool at all) and merges results
  in plan order, so the output -- including exported traces -- is
  byte-identical no matter how many workers ran;
* a :class:`SweepCache` memoises point results under a **content key**
  (the stage timing parameters of the chain, the packet size, the packet
  count, and the offered load).  The analytic models are pure functions
  of those inputs, so a repeated figure is a cache lookup, not a
  re-simulation.

Each cold point then executes through a three-tier engine: cache hit ->
the closed-form numpy kernel (:mod:`repro.sim.vector`) -> the scalar
DES-equivalent loop for chains with non-analytic features.  The kernel
is pinned to exact integer equality against the scalar reference, so
the tier a point took is invisible in the results.

Only plain strings and numbers cross the process boundary: a worker
receives an app name, a device name, and sweep parameters, reconstructs
the chain from the catalog, and returns floats (plus the point's JSONL
trace when tracing was requested).  Workers never share the parent's
cache; the parent consults the cache before dispatching and stores the
merged results afterwards.
"""

import dataclasses
import hashlib
import json
import math
import threading
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fileio import atomic_write_text
from repro.obs.profiler import phase as _profile_phase
from repro.runtime.context import SimContext, isolated_context_stack
from repro.sim.vector import chain_supports_vector


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of sweep work.

    ``engine`` picks the execution tier for the point's untraced bulk
    (``auto`` / ``vector`` / ``des`` -- see :mod:`repro.sim.vector`).
    It is deliberately *not* part of the cache key and not serialised in
    results: the vector kernel is pinned to exact equality against the
    scalar path, so the tier is invisible in the output.
    """

    app: str
    device: str
    packet_size_bytes: int
    packet_count: int
    with_harmonia: bool = True
    trace: bool = False
    engine: str = "auto"

    def label(self) -> str:
        variant = "harmonia" if self.with_harmonia else "native"
        return (f"{self.app}@{self.device}/{variant}/"
                f"{self.packet_size_bytes}B")


# ---------------------------------------------------------------------------
# Content-keyed cache
# ---------------------------------------------------------------------------

def chain_signature(chain) -> Tuple[Tuple[Any, ...], ...]:
    """The timing-relevant content of a chain: one tuple per stage.

    Two chains with equal signatures are observationally identical to
    :func:`repro.sim.pipeline.run_packet_sweep` -- stage and chain names
    are deliberately excluded, so e.g. two apps whose datapaths happen to
    reduce to the same stage parameters share cache entries.
    """
    return tuple(
        (
            stage.clock.freq_mhz,
            stage.data_width_bits,
            stage.latency_cycles,
            stage.initiation_interval,
            stage.per_transaction_overhead_cycles,
        )
        for stage in chain.stages
    )


def sweep_cache_key(
    signature: Tuple[Tuple[Any, ...], ...],
    packet_size_bytes: int,
    packet_count: int,
    offered_load_bps: Optional[float] = None,
    trace_of: Optional[str] = None,
) -> str:
    """A stable content key for one analytic sweep point.

    ``trace_of`` is the chain name and is folded in **only for traced
    points**: throughput/latency are pure functions of the timing
    signature alone, but an exported trace embeds span names, so a
    traced entry may only be reused under the same chain name.
    """
    payload = json.dumps(
        [list(stage) for stage in signature]
        + [packet_size_bytes, packet_count, offered_load_bps, trace_of],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SweepCache:
    """In-memory (optionally file-backed) memo of sweep-point results.

    Entries are keyed by :func:`sweep_cache_key` and carry the measured
    throughput/latency plus, when the point was traced, its exported
    JSONL -- a warm hit must be able to reproduce the cold run's trace
    byte for byte.  An entry without a stored trace does **not** satisfy
    a traced request (it counts as a miss), so enabling tracing never
    silently loses spans.

    ``max_entries`` bounds residency: the cache becomes an LRU (a hit
    refreshes an entry, a store beyond the bound evicts the least
    recently used one), so a long-lived serving daemon that keeps one
    cache resident forever cannot grow it without limit.  Evictions are
    counted on :attr:`evictions` and, when a registry is attached via
    :meth:`attach_metrics`, on the ``sweep.cache.evictions`` counter.

    All mutating operations take an internal lock, so one cache can be
    shared by concurrent daemon request threads.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1 (or None)")
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = None
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def attach_metrics(self, registry) -> "SweepCache":
        """Count future evictions on ``registry`` (``sweep.cache.evictions``)."""
        self._metrics = registry
        return self

    def _evict_over_bound(self) -> None:
        # Called with the lock held.
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self._metrics is not None:
                self._metrics.increment("sweep.cache.evictions")

    def _lookup_locked(self, key: str, need_trace: bool
                       ) -> Optional[Dict[str, Any]]:
        # Called with the lock held.
        entry = self._entries.get(key)
        if entry is None or (need_trace and "trace_jsonl" not in entry):
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def _store_locked(self, key: str, entry: Dict[str, Any]) -> None:
        # Called with the lock held.
        existing = self._entries.get(key)
        if (existing is not None and "trace_jsonl" in existing
                and "trace_jsonl" not in entry):
            self._entries.move_to_end(key)
            return  # never downgrade an entry that carries its trace
        self._entries[key] = dict(entry)
        self._entries.move_to_end(key)
        self._evict_over_bound()

    def lookup(self, key: str, need_trace: bool) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._lookup_locked(key, need_trace)

    def lookup_many(self, keys: Sequence[str], need_traces: Sequence[bool]
                    ) -> List[Optional[Dict[str, Any]]]:
        """Probe a whole plan's keys under one lock acquisition.

        Semantically identical to ``[lookup(k, t) for k, t in ...]``
        (hit/miss counters, LRU refresh, trace-bearing rules), but a
        45-point sweep pays one lock round trip instead of 45 -- the
        probe the fused planner issues before partitioning work.
        """
        with self._lock:
            return [self._lookup_locked(key, need)
                    for key, need in zip(keys, need_traces)]

    def store(self, key: str, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._store_locked(key, entry)

    def store_many(self, items: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Insert many entries under one lock acquisition.

        Same per-entry semantics as :meth:`store` (trace-downgrade
        protection, LRU bound enforced after every insert).
        """
        with self._lock:
            for key, entry in items:
                self._store_locked(key, entry)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    # --- persistence --------------------------------------------------------

    def save(self, path: str) -> int:
        """Write the cache as deterministic JSON; returns the entry count.

        The write is atomic: the JSON lands in a temporary file in the
        same directory and is moved into place with ``os.replace``, so a
        run interrupted mid-save leaves either the old file or the new
        one -- never a truncated half-cache.
        """
        with self._lock:
            snapshot = {key: entry for key, entry in self._entries.items()}
        atomic_write_text(
            path,
            json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n",
        )
        return len(snapshot)

    def load(self, path: str) -> int:
        """Merge entries from ``path``; returns how many were loaded.

        A file that is not valid JSON (e.g. truncated by a crash that
        predates atomic saves) raises :class:`ConfigurationError` with
        the path, not a bare ``json`` traceback.
        """
        with open(path) as handle:
            try:
                loaded = json.load(handle)
            except ValueError as error:
                raise ConfigurationError(
                    f"{path} is not a sweep cache file (corrupt or "
                    f"truncated JSON: {error})"
                ) from None
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"{path} is not a sweep cache file")
        with self._lock:
            for key, entry in loaded.items():
                self._entries.setdefault(key, entry)
            self._evict_over_bound()
        return len(loaded)


#: The process-wide cache every runner joins unless given a private one.
DEFAULT_CACHE = SweepCache()


# ---------------------------------------------------------------------------
# Point execution (worker side)
# ---------------------------------------------------------------------------

def _build_chain(point: SweepPoint):
    """App/device names -> the tailored datapath chain for this point."""
    from repro.apps import application_by_name
    from repro.platform.catalog import device_by_name

    app = application_by_name(point.app)
    device = device_by_name(point.device)
    shell = app.tailored_shell(device)
    return app.datapath(shell, point.with_harmonia)


#: One point executes at a time per process.  A point run mutates
#: process-wide state -- the global transaction-id counter and the
#: memoised (stateful, resettable) chains -- so two daemon request
#: threads interleaving would produce nondeterministic ids and corrupt
#: FIFO state.  The lock makes the critical section atomic; it costs the
#: single-threaded CLI nothing, and Python threads never overlapped the
#: CPU-bound simulation anyway.
_POINT_LOCK = threading.RLock()


def _run_chain_point(chain, point: SweepPoint) -> Dict[str, Any]:
    """Run one point on ``chain``; pure function of the chain's content.

    Runs with the ambient-context stack hidden, so results and traces do
    not depend on whether the caller happened to sit inside a
    ``with SimContext():`` block -- the worker-process path never does,
    and the serial path must match it byte for byte.
    """
    from repro.sim.pipeline import run_packet_sweep

    from repro.sim.pipeline import reset_transaction_ids

    with _POINT_LOCK, _profile_phase("sweep.point"), isolated_context_stack():
        # Every point starts from transaction id 0, so the ids a traced
        # point embeds in its spans cannot depend on pool-worker reuse
        # or on whatever ran earlier in this process.
        reset_transaction_ids()
        context = SimContext(name=point.label(), trace=True) if point.trace else None
        throughput_bps, mean_latency_ns = run_packet_sweep(
            chain, packet_size_bytes=point.packet_size_bytes,
            packet_count=point.packet_count, context=context,
            engine=point.engine,
        )
    entry: Dict[str, Any] = {
        "throughput_bps": throughput_bps,
        "mean_latency_ns": mean_latency_ns,
    }
    if context is not None:
        entry["trace_jsonl"] = context.trace.export_jsonl()
    return entry


#: Process-wide chain memo.  The (app, device, variant) combo repeats
#: across the packet-size axis and across runs, and a chain is a pure
#: (resettable) function of its combo, so each process -- pool worker or
#: parent -- tailors a given shell at most once.  Reads and writes take
#: :data:`_CHAIN_MEMO_LOCK`: concurrent daemon requests must never
#: interleave dict writes or observe a half-installed entry.
_CHAIN_MEMO: Dict[Tuple[str, str, bool], Any] = {}
_CHAIN_MEMO_LOCK = threading.Lock()


def _chain_for(point: SweepPoint):
    combo = (point.app, point.device, point.with_harmonia)
    with _CHAIN_MEMO_LOCK:
        chain = _CHAIN_MEMO.get(combo)
    if chain is None:
        # Tailoring is deterministic, so two threads racing to build the
        # same chain produce interchangeable objects; first store wins.
        chain = _build_chain(point)
        with _CHAIN_MEMO_LOCK:
            chain = _CHAIN_MEMO.setdefault(combo, chain)
    return chain


def _execute_point(point_fields: Tuple[Any, ...]) -> Dict[str, Any]:
    """Worker entry: rebuild the point and its chain, run, return floats."""
    point = SweepPoint(*point_fields)
    return _run_chain_point(_chain_for(point), point)


def run_point(point: SweepPoint) -> Dict[str, Any]:
    """Execute one point in isolation and return its raw result entry.

    The differential fuzzer's entry: it pins the engine on the point it
    passes in and compares the returned entries (including any
    ``trace_jsonl``) for exact equality across tiers.
    """
    return _run_chain_point(_chain_for(point), point)


# ---------------------------------------------------------------------------
# Fused multi-point planning
# ---------------------------------------------------------------------------

#: A fusable group's identity: same tailored chain, same packet count.
FuseKey = Tuple[Tuple[str, str, bool], int]


def partition_fusable(points: Sequence[SweepPoint],
                      indices: Iterable[int]
                      ) -> Tuple["OrderedDict[FuseKey, List[int]]", List[int]]:
    """Split pending point indices into fusable groups vs pool work.

    A point fuses when its untraced bulk would run on the vector kernel
    anyway: no trace requested (a traced point needs its own context and
    per-packet spans, so it keeps the per-point path) and an engine of
    ``auto``/``vector`` on a chain the kernel supports.  Fusable points
    group by (tailored chain, packet_count) -- one batched kernel call
    per group, bucketed by count so no padding packets exist -- with
    plan order preserved inside each group.  Everything else (traces,
    forced DES, non-analytic chains) lands in ``pooled`` for the
    per-point path; ``engine='vector'`` on an unsupported chain is
    deliberately routed there too, so it raises the same
    :class:`ConfigurationError` it always did.
    """
    groups: "OrderedDict[FuseKey, List[int]]" = OrderedDict()
    pooled: List[int] = []
    for index in indices:
        point = points[index]
        if not point.trace and point.engine != "des":
            chain = _chain_for(point)
            if chain_supports_vector(chain):
                key = ((point.app, point.device, point.with_harmonia),
                       point.packet_count)
                groups.setdefault(key, []).append(index)
                continue
        pooled.append(index)
    return groups, pooled


def run_fused_group(points: Sequence[SweepPoint],
                    indices: Sequence[int]) -> List[Dict[str, Any]]:
    """Execute one fusable group through the batched kernel, in-process.

    All ``indices`` must share a tailored chain and packet count (the
    :func:`partition_fusable` contract).  Returns one result entry per
    index, bit-exact equal to what :func:`run_point` produces for the
    same untraced points -- same isolation discipline (point lock,
    hidden context stack, transaction ids reset), no ProcessPool, no
    pickling, one kernel launch for the whole group.
    """
    from repro.sim.pipeline import reset_transaction_ids
    from repro.sim.vector import run_packet_sweep_vector_batch

    first = points[indices[0]]
    chain = _chain_for(first)
    packet_count = first.packet_count
    sizes = [points[index].packet_size_bytes for index in indices]
    with _POINT_LOCK, _profile_phase("sweep.fused"), isolated_context_stack():
        reset_transaction_ids()
        rows = run_packet_sweep_vector_batch(chain, sizes, packet_count)
    return [
        {"throughput_bps": throughput_bps, "mean_latency_ns": mean_latency_ns}
        for throughput_bps, mean_latency_ns in rows
    ]


def _pool_chunksize(count: int, workers: int) -> int:
    """Chunk size for fanning ``count`` points over ``workers`` processes.

    Ceil-divides the work into roughly ``4 * workers`` chunks so every
    worker gets a few chunks to balance across.  The old floor-divide
    left the remainder points in undersized tail chunks (and collapsed
    to chunks of 1 -- maximum pickling overhead -- for small batches).
    """
    return max(1, math.ceil(count / (workers * 4)))


def point_chain(point: SweepPoint):
    """The (memoised) tailored chain a point runs on."""
    return _chain_for(point)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointResult:
    """One sweep point's outcome plus its cache provenance."""

    point: SweepPoint
    throughput_bps: float
    mean_latency_ns: float
    cache_key: str
    cached: bool
    trace_jsonl: str = ""


class SweepResult:
    """Deterministically merged outcome of one :class:`SweepRunner` run."""

    def __init__(self, scenario, points: List[PointResult],
                 workers: int, fused_points: int = 0, fused_groups: int = 0,
                 pooled_points: int = 0, spawned_pool: bool = False) -> None:
        self.scenario = scenario
        self.points = points
        self.workers = workers
        #: Execution provenance (how the cold work ran), deliberately
        #: kept out of :meth:`to_json`: cache-miss points fused through
        #: the batched kernel vs executed per-point, batched kernel
        #: launches, and whether this run spawned its own ProcessPool
        #: (False when an externally owned executor was reused).
        self.fused_points = fused_points
        self.fused_groups = fused_groups
        self.pooled_points = pooled_points
        self.spawned_pool = spawned_pool

    def __len__(self) -> int:
        return len(self.points)

    @property
    def cache_hits(self) -> int:
        return sum(1 for point in self.points if point.cached)

    def samples(self):
        """Per-(app, device) Figure-17 samples, in plan order.

        Returns ``{(app, device): [PerformanceSample, ...]}`` with the
        same path-latency fold :meth:`CloudApplication.measure` applies.
        """
        from repro.apps import application_by_name

        apps = {name: application_by_name(name)
                for name in self.scenario.apps}
        grouped: Dict[Tuple[str, str], list] = {}
        for result in self.points:
            sample = apps[result.point.app].sample_for_point(
                result.point.packet_size_bytes,
                result.throughput_bps,
                result.mean_latency_ns,
                include_path_latency=(
                    self.scenario.workload.include_path_latency),
            )
            grouped.setdefault((result.point.app, result.point.device),
                               []).append(sample)
        return grouped

    def merged_trace_jsonl(self) -> str:
        """Every point's trace concatenated in plan order.

        Per-point traces come from per-point fresh contexts, so the
        concatenation is identical whether the points ran serially, on
        four workers, or straight out of the cache.
        """
        return "".join(point.trace_jsonl for point in self.points)

    def stitched_trace_jsonl(self, *, trace_id: str,
                             scenario_id: Optional[str] = None) -> str:
        """One *connected* span tree: request -> execute -> point spans.

        Unlike :meth:`merged_trace_jsonl` (a forest of per-point trees),
        this renumbers every point's fragment into a single id space and
        hangs the point roots under a synthetic ``serve.request`` ->
        ``serve.execute`` pair (see :func:`repro.obs.tracectx.stitch_spans`).
        Fragments are walked in plan order, so the bytes are identical
        at any worker count and any cache temperature -- the property
        that lets the serving daemon embed the tree in a coalesced
        response.  Returns ``""`` when the plan was not traced.
        """
        if not any(point.trace_jsonl for point in self.points):
            return ""
        from repro.obs.tracectx import stitch_spans

        root_attrs: Dict[str, Any] = {"points": len(self.points)}
        if scenario_id is not None:
            root_attrs["scenario_id"] = scenario_id
        return stitch_spans(
            [point.trace_jsonl for point in self.points],
            trace_id=trace_id, root_attrs=root_attrs,
            exec_attrs={"kind": "sweep"})

    def to_json(self) -> Dict[str, Any]:
        """A deterministic JSON-serialisable summary.

        Deliberately excludes wall-clock data *and* the worker count:
        the artifact is a pure function of the scenario, so two runs of
        the same sweep diff clean no matter how they were executed.
        ``plan`` is the sweep's shape: its axes plus the workload
        section.
        """
        scenario = self.scenario
        return {
            "plan": {"apps": list(scenario.apps),
                     "devices": list(scenario.devices),
                     **scenario.workload.to_json()},
            "points": [
                {
                    "app": point.point.app,
                    "device": point.point.device,
                    "packet_size_bytes": point.point.packet_size_bytes,
                    "packet_count": point.point.packet_count,
                    "with_harmonia": point.point.with_harmonia,
                    "throughput_gbps": point.throughput_bps / 1e9,
                    "mean_latency_ns": point.mean_latency_ns,
                    "cached": point.cached,
                    "cache_key": point.cache_key,
                }
                for point in self.points
            ],
        }


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class SweepRunner:
    """Executes a sweep-kind scenario across workers with caching.

    The scenario is the runner's only description of the sweep: its
    axes and workload section give the points, and its ``engine`` is
    already on every point (:meth:`repro.scenario.Scenario.expand_points`).
    Any other scenario kind is rejected here, before anything runs.

    Cache-miss points are partitioned by the **fused planner**
    (:func:`partition_fusable`): vector-eligible untraced points group
    by (tailored chain, packet_count) and execute in-process through the
    batched kernel (:func:`repro.sim.vector.run_packet_sweep_vector_batch`)
    -- no ProcessPool, no pickling, one kernel launch per group.  The
    remainder (traced points, forced DES, non-analytic chains) runs
    per-point: in-process when ``workers=1``, else fanned out over a
    ``ProcessPoolExecutor``.  ``executor`` injects an externally owned
    pool (the serving daemon keeps one resident) instead of spawning one
    per run; ``fuse=False`` disables the planner entirely (benchmarks
    time the per-point path against it).

    Results are merged in plan order no matter how they executed, and
    the batched kernel is pinned bit-exact to the per-point tiers, so
    fusing, worker count, and executor ownership are all invisible in
    the output -- determinism tests assert byte-identical results and
    traces across every combination.
    """

    def __init__(self, scenario, workers: int = 1,
                 cache: Optional[SweepCache] = None,
                 use_cache: bool = True, fuse: bool = True,
                 executor: Optional[Executor] = None) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.scenario = scenario
        self.points = scenario.expand_points()
        self.workers = workers
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.use_cache = use_cache
        self.fuse = fuse
        self.executor = executor

    def run(self) -> SweepResult:
        points = self.points
        # Chains are resolved through the process-wide memo: built once
        # per (app, device, variant), which is cheap relative to a
        # point's simulation and exactly what the content key needs.
        # The serial path reuses them for execution too
        # (run_packet_sweep resets the chain, so reuse is deterministic).
        keys: List[str] = []
        for point in points:
            chain = _chain_for(point)
            keys.append(sweep_cache_key(
                chain_signature(chain), point.packet_size_bytes,
                point.packet_count,
                trace_of=chain.name if point.trace else None,
            ))

        entries: List[Optional[Dict[str, Any]]]
        if self.use_cache:
            # One lock acquisition for the whole plan's probe.
            entries = self.cache.lookup_many(
                keys, [point.trace for point in points])
        else:
            entries = [None] * len(points)
        pending = [index for index, entry in enumerate(entries)
                   if entry is None]

        fused_points = fused_groups = pooled_points = 0
        spawned_pool = False
        if pending:
            # Intra-run dedup: two pending points with equal content keys
            # are the same pure computation (traced points fold the chain
            # name into the key, so shared entries stay trace-safe).
            # Only the first index per key is executed.
            executed: List[int] = []
            duplicates: Dict[str, int] = {}
            for index in pending:
                first = duplicates.setdefault(keys[index], index)
                if first == index:
                    executed.append(index)
            if self.fuse:
                groups, pooled = partition_fusable(points, executed)
            else:
                groups, pooled = OrderedDict(), list(executed)
            for indices in groups.values():
                for index, entry in zip(indices,
                                        run_fused_group(points, indices)):
                    entries[index] = entry
                fused_points += len(indices)
                fused_groups += 1
            pooled_points = len(pooled)
            if pooled:
                if self.workers > 1:
                    spawned_pool = self._run_pooled(points, pooled, entries)
                else:
                    for index in pooled:
                        point = points[index]
                        entries[index] = _run_chain_point(
                            _chain_for(point), point)
            for index in pending:
                if entries[index] is None:
                    entries[index] = entries[duplicates[keys[index]]]
            if self.use_cache:
                # One lock acquisition for the whole plan's insert.
                self.cache.store_many(
                    (keys[index], entries[index]) for index in executed)

        pending_set = set(pending)
        results = [
            PointResult(
                point=point,
                throughput_bps=entry["throughput_bps"],
                mean_latency_ns=entry["mean_latency_ns"],
                cache_key=key,
                cached=index not in pending_set,
                trace_jsonl=entry.get("trace_jsonl", "") if point.trace else "",
            )
            for index, (point, key, entry) in enumerate(zip(points, keys, entries))
        ]
        return SweepResult(self.scenario, results, self.workers,
                           fused_points=fused_points,
                           fused_groups=fused_groups,
                           pooled_points=pooled_points,
                           spawned_pool=spawned_pool)

    def _run_pooled(self, points: List[SweepPoint], pending: List[int],
                    entries: List[Optional[Dict[str, Any]]]) -> bool:
        """Fan the pending points out over a process pool, merge in order.

        Uses the injected :attr:`executor` when one was given (and
        leaves its lifecycle to its owner); otherwise spawns a pool for
        this run.  Returns whether a pool was spawned.
        """
        specs: Iterable[Tuple[Any, ...]] = [
            dataclasses.astuple(points[index]) for index in pending
        ]
        chunksize = _pool_chunksize(len(pending), self.workers)
        if self.executor is not None:
            for index, entry in zip(pending,
                                    self.executor.map(_execute_point, specs,
                                                      chunksize=chunksize)):
                entries[index] = entry
            return False
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            for index, entry in zip(pending,
                                    pool.map(_execute_point, specs,
                                             chunksize=chunksize)):
                entries[index] = entry
        return True
