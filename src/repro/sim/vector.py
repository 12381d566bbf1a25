"""Closed-form vectorized packet-train kernel.

The scalar sweep loop (:meth:`repro.sim.pipeline.PipelineChain.process`
and its batch form ``process_batch``) walks one packet at a time through
the cut-through recurrence

    start[i, j] = next_edge_j(max(out[i, j-1], start[i-1, j] + busy[i-1, j]))

where ``out[i, j-1]`` is the first-beat-out time of packet ``i`` at the
upstream stage and ``busy`` is the stage's occupancy per packet.  Two
facts make the recurrence collapse into array operations:

* ``busy`` is always a whole number of clock periods, and ``start`` is
  always edge-aligned, so ``start[i-1] + busy[i-1]`` is already on a
  clock edge -- ``next_edge`` distributes over the ``max``:
  ``start[i] = max(next_edge(out[i]), start[i-1] + busy[i-1])``;
* subtracting the exclusive prefix sum ``B[i] = busy[0] + ... +
  busy[i-1]`` turns that into a running maximum:
  ``start[i] - B[i] = max(next_edge(out[i]) - B[i], start[i-1] -
  B[i-1])``, i.e. ``start = B + cummax(next_edge(out) - B)``.

One prefix sum + one ``cummax`` per stage therefore replays the entire
train -- back-pressure through stage occupancy included -- in a handful
of numpy passes, and every operation reproduces the scalar arithmetic
bit for bit (the float divisions inside ``next_edge`` and ``beats`` are
replicated, not "improved", so the kernel is pinned to **exact integer
equality** against the scalar oracles).

There is exactly one replay, :func:`_replay_trains`, over a ``(rows,
packets)`` grid of independent trains.  Packet sizes take one of three
shapes:

* a scalar -- one size everywhere, ``B = busy * index``;
* a ``(rows,)`` array -- each row uniform at its own size (the fused
  sweep planner's shape), ``B = busy * index`` per row;
* a ``(rows, packets)`` array -- mixed trains, ``B`` is the exclusive
  ``cumsum`` of ``busy`` along the packet axis.

Every public entry point is a thin caller: :func:`simulate_train` is
the one-row :func:`simulate_trains`, :func:`process_batch_vector` rides
on it, and :func:`run_packet_sweep_vector` is the one-point
:func:`run_packet_sweep_vector_batch`.  The scalar oracles,
:func:`simulate_train_reference` and
:func:`repro.sim.pipeline.run_packet_sweep_reference`, never touch the
kernel; the tests pin it against them.

When numpy is unavailable every entry point degrades gracefully:
:func:`chain_supports_vector` returns ``False`` and the callers fall
back to the scalar path.
"""

import math
from typing import Any, List, Optional, Sequence, Tuple

try:  # numpy is a declared dependency, but degrade instead of crashing.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

from repro.errors import ConfigurationError
from repro.obs.profiler import phase as _profile_phase
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import PipelineChain, PipelineStage

#: Recognised execution engines for analytic packet sweeps.
ENGINES: Tuple[str, ...] = ("auto", "vector", "des")


def numpy_available() -> bool:
    """Whether the vector kernel can run at all."""
    return _np is not None


def chain_supports_vector(chain: PipelineChain) -> bool:
    """True when every stage is an analytic :class:`PipelineStage`.

    Subclassed stages or clocks may override ``process``/``next_edge_ps``
    with behaviour the closed form cannot see, so anything but the exact
    base types routes to the scalar (DES-equivalent) fallback.
    """
    if _np is None:
        return False
    return all(
        type(stage) is PipelineStage and type(stage.clock) is ClockDomain
        for stage in chain.stages
    )


def resolve_engine(chain: PipelineChain, engine: str) -> bool:
    """Map an engine name to "use the vector kernel?" for ``chain``.

    ``auto`` picks the vector kernel whenever the chain supports it;
    ``vector`` demands it (raising :class:`ConfigurationError` when the
    chain has non-analytic features or numpy is missing); ``des`` forces
    the scalar reference-semantics path.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown sweep engine {engine!r}; choose from {', '.join(ENGINES)}"
        )
    if engine == "des":
        return False
    supported = chain_supports_vector(chain)
    if engine == "vector" and not supported:
        raise ConfigurationError(
            "engine='vector' requested but the chain has non-analytic "
            "stages (or numpy is unavailable); use engine='auto' or 'des'"
        )
    return supported


class TrainTiming:
    """Per-packet timings of one vectorized train replay."""

    __slots__ = ("arrivals_ps", "completed_ps", "latencies_ps")

    def __init__(self, arrivals_ps, completed_ps) -> None:
        self.arrivals_ps = arrivals_ps
        self.completed_ps = completed_ps
        self.latencies_ps = completed_ps - arrivals_ps

    def __len__(self) -> int:
        return len(self.completed_ps)

    @property
    def first_completion_ps(self) -> int:
        return int(self.completed_ps[0])

    @property
    def last_completion_ps(self) -> int:
        return int(self.completed_ps[-1])

    @property
    def total_latency_ps(self) -> int:
        return int(self.latencies_ps.sum())

    def latencies_list(self) -> List[int]:
        """Latencies as plain Python ints (registry/JSON safe)."""
        return self.latencies_ps.tolist()


class BatchTrainTiming:
    """Per-packet timings of a multi-train replay.

    ``arrivals_ps``/``completed_ps``/``latencies_ps`` are ``(rows,
    packets)`` int64 tensors: row ``i`` is one independent replay of
    the chain from its carried-in stage occupancy.
    """

    __slots__ = ("arrivals_ps", "completed_ps", "latencies_ps")

    def __init__(self, arrivals_ps, completed_ps) -> None:
        self.arrivals_ps = arrivals_ps
        self.completed_ps = completed_ps
        self.latencies_ps = completed_ps - arrivals_ps

    def __len__(self) -> int:
        return int(self.completed_ps.shape[0])

    @property
    def rows(self) -> int:
        return int(self.completed_ps.shape[0])

    @property
    def packets(self) -> int:
        return int(self.completed_ps.shape[1])

    def row(self, index: int) -> TrainTiming:
        """One row's timings as a :class:`TrainTiming` (array views)."""
        return TrainTiming(self.arrivals_ps[index], self.completed_ps[index])


def _next_edge_array(times_ps, period_ps: int):
    """Vectorized ``ClockDomain.next_edge_ps`` -- same float ceil-divide.

    Always returns a fresh buffer (the division allocates it), so
    callers may mutate the result in place.
    """
    edges = times_ps / period_ps
    _np.ceil(edges, out=edges)
    edges = edges.astype(_np.int64)
    edges *= period_ps
    return edges


def _stage_beats(stage: PipelineStage, sizes_bytes) -> Any:
    """Vectorized ``PipelineStage.beats`` (same float ceil-divide)."""
    beats = _np.ceil((sizes_bytes * 8) / stage.data_width_bits).astype(_np.int64)
    return _np.where(sizes_bytes <= 0, 1, beats)


def _is_scalar(sizes_bytes) -> bool:
    """One size for every packet (a Python/numpy int or a 0-d array)."""
    return _np.isscalar(sizes_bytes) or getattr(sizes_bytes, "ndim", 1) == 0


def _replay_trains(chain: PipelineChain, arrivals, sizes):
    """The cut-through recurrence over a ``(rows, packets)`` arrival grid.

    The module's only replay.  Each row replays the chain independently
    from the chain's current carried-in ``_next_free_ps``: the
    recurrence runs once per stage along axis 1.  ``sizes`` is an int,
    a ``(rows,)`` int64 array of per-row uniform sizes or a ``(rows,
    packets)`` int64 array of per-packet sizes (callers validate the
    shape).  Scalar and per-row sizes build the busy prefix sum as
    ``busy * index``; per-packet sizes take the exclusive ``cumsum``
    along the packet axis.

    Mutates nothing; returns ``(completed, info)`` where ``completed``
    is the ``(rows, packets)`` completion tensor and ``info`` holds one
    ``(busy, last_starts)`` pair per stage for :func:`_fold_back`
    (``busy`` is an int, a ``(rows, 1)`` or a ``(rows, packets)``
    array; ``last_starts`` is each row's final issue edge at that
    stage).
    """
    scalar = isinstance(sizes, int)
    if not scalar and sizes.ndim == 1:
        sizes = sizes[:, None]
    per_packet = not scalar and sizes.shape[1] > 1
    index = _np.arange(int(arrivals.shape[1]), dtype=_np.int64)[None, :]
    out = arrivals
    completed = arrivals
    info = []
    final = len(chain.stages) - 1
    with _profile_phase("vector.kernel"):
        for position, stage in enumerate(chain.stages):
            period = stage.clock.period_ps
            beats = stage.beats(sizes) if scalar else _stage_beats(stage, sizes)
            busy = (beats * stage.initiation_interval
                    + stage.per_transaction_overhead_cycles) * period
            if per_packet:
                ramp = _np.cumsum(busy, axis=1)
                ramp -= busy
            else:
                ramp = busy * index
            # _next_edge_array hands back a fresh buffer; from here on
            # every op mutates it in place.
            starts = _next_edge_array(out, period)
            free0 = stage._next_free_ps
            if free0 > 0:
                # next_edge distributes over max, so the carried-in
                # occupancy only gates each row's first issue edge.
                aligned = int(math.ceil(free0 / period)) * period
                starts[:, 0] = _np.maximum(starts[:, 0], aligned)
            # starts = ramp + cummax(edges - ramp) along the packet axis.
            starts -= ramp
            _np.maximum.accumulate(starts, axis=1, out=starts)
            starts += ramp
            info.append((busy, starts[:, -1].copy()))
            if position == final:
                # The last stage completes a packet when its tail beat
                # leaves; upstream stages forward the first beat.
                starts += (stage.latency_cycles
                           + (beats - 1) * stage.initiation_interval) * period
                completed = starts
            else:
                starts += stage.latency_cycles * period
                out = starts
    return completed, info


def _fold_back(chain: PipelineChain, info, rows: int, count: int) -> None:
    """Fold the last ``rows`` rows of a replay into the chain's state.

    Leaves the chain as replaying those rows one after another, each
    from the same carried-in occupancy, would: ``transactions_processed``
    and ``busy_ps`` accumulate over the rows and the final occupancy is
    the last row's.  Scalar and per-row sizes fold in plain arithmetic;
    only per-packet sizes sum over elements.
    """
    for stage, (busy, last_starts) in zip(chain.stages, info):
        if isinstance(busy, int):
            last_busy = busy
            total_busy = busy * count * rows
        else:
            folded = busy[-rows:]
            last_busy = int(folded[-1, -1])
            total_busy = int(folded.sum())
            if folded.shape[1] == 1:    # per-row: one busy for every packet
                total_busy *= count
        stage._next_free_ps = int(last_starts[-1]) + last_busy
        stage.transactions_processed += rows * count
        stage.busy_ps += total_busy


def simulate_trains(
    chain: PipelineChain,
    arrivals_ps,
    sizes_bytes,
    update_state: bool = True,
) -> BatchTrainTiming:
    """Replay many independent trains through ``chain`` in one pass.

    ``arrivals_ps`` is a ``(rows, packets)`` int64 tensor of creation
    times; ``sizes_bytes`` is a scalar (one size everywhere), a
    ``(rows,)`` array of per-row uniform sizes or a ``(rows, packets)``
    array of per-packet sizes.  Every row starts from the chain's
    current carried-in ``_next_free_ps`` and replays independently --
    row for row the completions of :func:`simulate_train_reference` with
    the starting occupancy restored in between.

    With ``update_state`` (the default) the fold-back matches that
    sequential oracle loop too: ``transactions_processed`` and
    ``busy_ps`` accumulate over **all** rows and the final occupancy is
    the **last** row's, which the property tests pin stage for stage.

    Rows must share one packet count: the sweep planner buckets points
    by ``packet_count`` before calling in, so no padding packets ever
    exist to lie about throughput or latency.
    """
    if _np is None:
        raise ConfigurationError("numpy is required for the vector kernel")
    arrivals = _np.asarray(arrivals_ps, dtype=_np.int64)
    if arrivals.ndim != 2:
        raise ConfigurationError(
            "simulate_trains needs a (rows, packets) arrival tensor; "
            f"got shape {arrivals.shape}"
        )
    rows, count = (int(arrivals.shape[0]), int(arrivals.shape[1]))
    if rows == 0 or count == 0:
        raise ConfigurationError("a train batch needs >= 1 row and packet")
    if _is_scalar(sizes_bytes):
        sizes_bytes = int(sizes_bytes)
    else:
        sizes_bytes = _np.asarray(sizes_bytes, dtype=_np.int64)
        if sizes_bytes.shape not in ((rows,), (rows, count)):
            raise ConfigurationError(
                "sizes must be one int per train row or per packet; got "
                f"shape {sizes_bytes.shape} for {rows} x {count} trains"
            )
    completed, info = _replay_trains(chain, arrivals, sizes_bytes)
    if update_state:
        _fold_back(chain, info, rows, count)
    return BatchTrainTiming(arrivals, completed)


def simulate_train(
    chain: PipelineChain,
    arrivals_ps,
    sizes_bytes,
    update_state: bool = True,
) -> TrainTiming:
    """Replay one train through ``chain``: the one-row :func:`simulate_trains`.

    ``arrivals_ps`` is a 1-D int64 array of creation times;
    ``sizes_bytes`` is either a scalar (uniform train) or an int64 array
    of per-packet sizes (mixed train).  Starting occupancy is read from
    each stage's live ``_next_free_ps``, and with ``update_state`` (the
    default) the final occupancy and the
    ``transactions_processed``/``busy_ps`` statistics are folded back --
    observationally identical to calling :meth:`PipelineChain.process`
    once per packet, which the tests pin packet for packet.
    """
    if _np is None:
        raise ConfigurationError("numpy is required for the vector kernel")
    arrivals = _np.asarray(arrivals_ps, dtype=_np.int64)
    if arrivals.ndim != 1:
        raise ConfigurationError(
            f"a train needs a 1-D arrival array; got shape {arrivals.shape}"
        )
    if not _is_scalar(sizes_bytes):
        sizes_bytes = _np.asarray(sizes_bytes, dtype=_np.int64)
        if sizes_bytes.shape != arrivals.shape:
            raise ConfigurationError("per-packet sizes must match arrivals")
        sizes_bytes = sizes_bytes[None, :]
    return simulate_trains(chain, arrivals[None, :], sizes_bytes,
                           update_state).row(0)


def process_batch_vector(
    chain: PipelineChain,
    size_bytes: int,
    gap_ps: float,
    start_index: int,
    count: int,
    latencies: Optional[List[int]] = None,
) -> Tuple[int, int, int]:
    """Drop-in vector replacement for :meth:`PipelineChain.process_batch`.

    Same arrival law (``int(round(index * gap_ps))``, replicated via
    ``np.rint`` on the identical float products), same return tuple,
    same side effects on stage occupancy and statistics.
    """
    if count <= 0:
        return 0, 0, 0
    indices = _np.arange(start_index, start_index + count, dtype=_np.float64)
    arrivals = _np.rint(indices * gap_ps).astype(_np.int64)
    timing = simulate_train(chain, arrivals, size_bytes)
    if latencies is not None:
        latencies.extend(timing.latencies_list())
    return (timing.first_completion_ps, timing.last_completion_ps,
            timing.total_latency_ps)


def run_packet_sweep_vector_batch(
    chain: PipelineChain,
    packet_sizes: Sequence[int],
    packet_count: int,
    offered_loads_bps: Optional[Sequence[float]] = None,
) -> List[Tuple[float, float]]:
    """Vectorized :func:`repro.sim.pipeline.run_packet_sweep_reference`
    for many points at once.

    Executes one sweep point per entry of ``packet_sizes`` (all sharing
    ``packet_count``) against ``chain`` in a single ``(points, packets)``
    kernel pass.  Returns one ``(throughput_bps, mean_latency_ns)`` pair
    per point, **bit-exact** equal to calling the reference once per
    size in order -- including the chain's folded-back stage occupancy
    and statistics, which end up exactly as the sequential per-point
    loop leaves them (each point resets the chain, so the final state is
    the last point's).

    This is the sweep hot path's fused tier: per-point dispatch, memo
    probes, and kernel launches collapse into one batched replay, so a
    cold app x device x size grid costs a handful of numpy passes per
    tailored chain instead of one per point.
    """
    if _np is None:
        raise ConfigurationError("numpy is required for the vector kernel")
    sizes = [int(size) for size in packet_sizes]
    if not sizes:
        return []
    if packet_count < 1:
        raise ConfigurationError("packet_count must be >= 1")
    if offered_loads_bps is not None and len(offered_loads_bps) != len(sizes):
        raise ConfigurationError(
            "offered_loads_bps must match packet_sizes one for one"
        )
    chain.reset()
    gaps = []
    for row, size in enumerate(sizes):
        load = (offered_loads_bps[row] if offered_loads_bps is not None
                else chain.bandwidth_bps(size) * 0.98)
        gaps.append(size * 8 / load * 1e12)
    index = _np.arange(packet_count, dtype=_np.float64)[None, :]
    arrivals = _np.rint(
        _np.asarray(gaps, dtype=_np.float64)[:, None] * index
    ).astype(_np.int64)
    completed, info = _replay_trains(
        chain, arrivals, _np.asarray(sizes, dtype=_np.int64))
    # Fold back the *last* row only: the sequential per-point loop
    # resets the chain at each point, so after it runs the chain carries
    # exactly (and only) the final point's occupancy and stats.
    _fold_back(chain, info, rows=1, count=packet_count)
    latencies = completed - arrivals
    results: List[Tuple[float, float]] = []
    for row, size in enumerate(sizes):
        # Per-row scalar arithmetic replicates the reference loop's
        # float expressions operand for operand.
        first = int(completed[row, 0])
        last = int(completed[row, -1])
        total_latency = int(latencies[row].sum())
        duration_ps = max(last - (first or 0), 1)
        throughput_bps = (packet_count - 1) * size * 8 / (duration_ps / 1e12)
        mean_latency_ns = total_latency / packet_count / 1_000
        results.append((throughput_bps, mean_latency_ns))
    return results


def run_packet_sweep_vector(
    chain: PipelineChain,
    packet_size_bytes: int,
    packet_count: int,
    offered_load_bps: Optional[float] = None,
) -> Tuple[float, float]:
    """Vectorized :func:`repro.sim.pipeline.run_packet_sweep_reference`.

    The one-point :func:`run_packet_sweep_vector_batch`: the identical
    ``(throughput_bps, mean_latency_ns)`` floats and stage state.
    """
    loads = None if offered_load_bps is None else [offered_load_bps]
    return run_packet_sweep_vector_batch(
        chain, [packet_size_bytes], packet_count, loads)[0]


def simulate_train_reference(
    chain: PipelineChain,
    arrivals_ps: Sequence[int],
    sizes_bytes: Sequence[int],
) -> List[int]:
    """Scalar oracle for :func:`simulate_train` (per-packet completions).

    Pushes one :class:`~repro.sim.pipeline.Transaction` per packet
    through :meth:`PipelineChain.process` -- the bench and the property
    tests compare the kernel against this loop packet for packet.
    """
    from repro.sim.pipeline import Transaction

    completed: List[int] = []
    for arrival, size in zip(arrivals_ps, sizes_bytes):
        txn = Transaction(size_bytes=int(size), created_ps=int(arrival))
        chain.process(txn)
        completed.append(txn.completed_ps)
    return completed
