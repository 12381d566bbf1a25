"""The multi-train kernel vs the scalar oracles.

``simulate_trains`` / ``run_packet_sweep_vector_batch`` claim **bit
exactness** against the per-Transaction scalar loops -- same completion
integers, same result floats, same folded-back stage occupancy and
statistics as the sequential per-row loop would leave.  The single-train
entry points run this same kernel, so the expected side is always
``simulate_train_reference`` or ``run_packet_sweep_reference``.  These
tests pin all of it: hand-picked chains for the edges, hypothesis over
random chain groups and all three size shapes, mixed packet-count
buckets, and warm carried-in ``_next_free_ps`` state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import (
    PipelineChain,
    PipelineStage,
    run_packet_sweep_reference,
)
from repro.sim.vector import (
    BatchTrainTiming,
    run_packet_sweep_vector_batch,
    simulate_train_reference,
    simulate_trains,
)

FREQS = (100.0, 250.0, 322.265625, 500.0, 1_562.5)
WIDTHS = (8, 64, 256, 512)


def stage_state(chain):
    """The observable per-stage state the kernels must fold back."""
    return [(stage._next_free_ps, stage.transactions_processed,
             stage.busy_ps) for stage in chain.stages]


@st.composite
def chains(draw, max_stages: int = 4) -> PipelineChain:
    count = draw(st.integers(1, max_stages))
    stages = [
        PipelineStage(
            f"s{index}",
            ClockDomain(f"c{index}", draw(st.sampled_from(FREQS))),
            draw(st.sampled_from(WIDTHS)),
            latency_cycles=draw(st.integers(0, 24)),
            initiation_interval=draw(st.integers(1, 4)),
            per_transaction_overhead_cycles=draw(st.integers(0, 8)),
        )
        for index in range(count)
    ]
    return PipelineChain("prop", stages)


@st.composite
def train_batches(draw, max_rows: int = 5, max_packets: int = 32):
    rows = draw(st.integers(1, max_rows))
    count = draw(st.integers(1, max_packets))
    grids = []
    for _ in range(rows):
        gaps = draw(st.lists(st.integers(0, 60_000),
                             min_size=count, max_size=count))
        grids.append(np.cumsum(np.asarray(gaps, dtype=np.int64)))
    sizes = draw(st.one_of(
        st.integers(1, 4_096),
        st.lists(st.integers(1, 4_096), min_size=rows, max_size=rows),
        st.lists(st.lists(st.integers(1, 4_096), min_size=count,
                          max_size=count),
                 min_size=rows, max_size=rows),
    ))
    return np.stack(grids), sizes


def packet_sizes(sizes, rows, count):
    """Per-row lists of per-packet sizes for any of the three shapes."""
    if isinstance(sizes, int):
        return [[sizes] * count] * rows
    return [row if isinstance(row, list) else [row] * count
            for row in sizes]


def kernel_sizes(sizes):
    """The drawn sizes as the kernel takes them (int or int64 array)."""
    return sizes if isinstance(sizes, int) else np.asarray(sizes,
                                                           dtype=np.int64)


def reference_rows(chain, arrivals, sizes):
    """Replay each row through the scalar oracle from the same start.

    Restores every stage's starting occupancy between rows, so the chain
    ends up as the batch's fold-back must leave it.
    """
    rows, count = arrivals.shape
    initial = [stage._next_free_ps for stage in chain.stages]
    expected = []
    for row, row_sizes in enumerate(packet_sizes(sizes, rows, count)):
        for stage, free in zip(chain.stages, initial):
            stage._next_free_ps = free
        expected.append(simulate_train_reference(
            chain, arrivals[row].tolist(), row_sizes))
    return expected


def simple_chain():
    return PipelineChain("batch", [
        PipelineStage("a", ClockDomain("c1", 322.265625), 64,
                      latency_cycles=3, initiation_interval=2,
                      per_transaction_overhead_cycles=1),
        PipelineStage("b", ClockDomain("c2", 250.0), 256, latency_cycles=7),
    ])


class TestSimulateTrains:
    @settings(max_examples=50, deadline=None)
    @given(chain=chains(), batch=train_batches())
    def test_rows_match_per_train_oracle(self, chain, batch):
        """Each row == the scalar oracle from the same starting
        occupancy, and the fold-back == the restore-and-replay loop."""
        arrivals, sizes = batch
        chain.reset()
        expected_rows = reference_rows(chain, arrivals, sizes)
        expected_state = stage_state(chain)

        chain.reset()
        timing = simulate_trains(chain, arrivals, kernel_sizes(sizes))
        assert timing.completed_ps.tolist() == expected_rows
        assert stage_state(chain) == expected_state

    @settings(max_examples=25, deadline=None)
    @given(chain=chains(), batch=train_batches(max_rows=3, max_packets=16),
           warm=st.lists(st.integers(0, 40_000), min_size=3, max_size=3))
    def test_warm_carried_in_state(self, chain, batch, warm):
        """Rows starting from warm ``_next_free_ps`` fold exactly."""
        arrivals, sizes = batch
        warm_train = np.cumsum(
            np.asarray(warm, dtype=np.int64)).tolist()  # heats the chain up

        chain.reset()
        simulate_train_reference(chain, warm_train, [512] * len(warm_train))
        expected_rows = reference_rows(chain, arrivals, sizes)
        expected_state = stage_state(chain)

        chain.reset()
        simulate_train_reference(chain, warm_train, [512] * len(warm_train))
        timing = simulate_trains(chain, arrivals, kernel_sizes(sizes))
        assert timing.completed_ps.tolist() == expected_rows
        assert stage_state(chain) == expected_state

    def test_update_state_false_leaves_chain_untouched(self):
        chain = simple_chain()
        arrivals = np.asarray([[0, 1_000], [500, 2_500]], dtype=np.int64)
        before = stage_state(chain)
        timing = simulate_trains(chain, arrivals, 64, update_state=False)
        assert stage_state(chain) == before
        assert timing.rows == 2 and timing.packets == 2

    def test_row_accessor_matches_per_train(self):
        chain = simple_chain()
        arrivals = np.asarray([[0, 900, 1_800], [0, 40, 80]], dtype=np.int64)
        batch = simulate_trains(chain, arrivals,
                                np.asarray([64, 1_500], dtype=np.int64),
                                update_state=False)
        assert isinstance(batch, BatchTrainTiming)
        assert len(batch) == 2
        for row, size in enumerate((64, 1_500)):
            chain.reset()
            expected = simulate_train_reference(
                chain, arrivals[row].tolist(), [size] * 3)
            view = batch.row(row)
            assert view.completed_ps.tolist() == expected
            assert view.latencies_ps.tolist() == [
                done - arrival
                for done, arrival in zip(expected, arrivals[row].tolist())]

    def test_shape_validation(self):
        chain = simple_chain()
        flat = np.asarray([0, 10], dtype=np.int64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, flat, 64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, np.empty((0, 4), dtype=np.int64), 64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, np.empty((2, 0), dtype=np.int64), 64)
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, np.zeros((2, 3), dtype=np.int64),
                            np.asarray([64], dtype=np.int64))
        with pytest.raises(ConfigurationError):
            simulate_trains(chain, np.zeros((2, 3), dtype=np.int64),
                            np.full((2, 4), 64, dtype=np.int64))


class TestSweepBatch:
    @settings(max_examples=40, deadline=None)
    @given(chain=chains(),
           sizes=st.lists(st.integers(1, 2_048), min_size=1, max_size=6),
           count=st.integers(1, 300))
    def test_batch_equals_sequential_per_point(self, chain, sizes, count):
        """Fused == the scalar per-point loop: floats and folded state."""
        expected = [run_packet_sweep_reference(chain, size, count)
                    for size in sizes]
        expected_state = stage_state(chain)

        batched = run_packet_sweep_vector_batch(chain, sizes, count)
        assert batched == expected          # bit-exact floats
        assert stage_state(chain) == expected_state

    @settings(max_examples=15, deadline=None)
    @given(chain=chains(max_stages=3),
           sizes=st.lists(st.integers(1, 2_048), min_size=1, max_size=4),
           counts=st.lists(st.integers(1, 120), min_size=2, max_size=3,
                           unique=True))
    def test_mixed_count_buckets_compose(self, chain, sizes, counts):
        """One batch call per packet-count bucket == per-point sequence."""
        expected = []
        for count in counts:
            for size in sizes:
                expected.append(run_packet_sweep_reference(chain, size, count))
        expected_state = stage_state(chain)
        batched = []
        for count in counts:
            batched.extend(run_packet_sweep_vector_batch(chain, sizes, count))
        assert batched == expected
        assert stage_state(chain) == expected_state

    def test_empty_sizes_is_noop(self):
        chain = simple_chain()
        assert run_packet_sweep_vector_batch(chain, [], 100) == []
        assert stage_state(chain) == [(0, 0, 0), (0, 0, 0)]

    def test_bad_count_and_load_shapes_rejected(self):
        chain = simple_chain()
        with pytest.raises(ConfigurationError):
            run_packet_sweep_vector_batch(chain, [64], 0)
        with pytest.raises(ConfigurationError):
            run_packet_sweep_vector_batch(chain, [64, 128], 10,
                                          offered_loads_bps=[1e9])

    def test_explicit_offered_loads(self):
        chain = simple_chain()
        loads = [chain.bandwidth_bps(64) * 0.5, chain.bandwidth_bps(256) * 0.9]
        expected = [
            run_packet_sweep_reference(chain, 64, 200,
                                       offered_load_bps=loads[0]),
            run_packet_sweep_reference(chain, 256, 200,
                                       offered_load_bps=loads[1]),
        ]
        assert run_packet_sweep_vector_batch(
            chain, [64, 256], 200, offered_loads_bps=loads) == expected

    def test_single_packet_trains(self):
        """packet_count=1 exercises the degenerate duration window."""
        chain = simple_chain()
        expected = [run_packet_sweep_reference(chain, size, 1)
                    for size in (64, 1_024)]
        assert run_packet_sweep_vector_batch(chain, [64, 1_024], 1) == expected
