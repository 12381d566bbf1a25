"""The closed-form vector kernel vs the scalar (DES-reference) loop.

The kernel's whole contract is *exact integer equality* with the
per-Transaction scalar path -- these tests pin it with hypothesis over
random stage configurations and train shapes, and check the physical
sanity property that adding pipeline stages never increases throughput.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import (
    PipelineChain,
    PipelineStage,
    run_packet_sweep,
    run_packet_sweep_reference,
)
from repro.sim.vector import (
    ENGINES,
    chain_supports_vector,
    process_batch_vector,
    resolve_engine,
    run_packet_sweep_vector,
    simulate_train,
    simulate_train_reference,
)

#: Realistic clock frequencies (MHz) drawn from the catalog's range,
#: including the non-integer-period 322.265625 MHz Ethernet clock.
FREQS = (100.0, 250.0, 322.265625, 500.0, 1_562.5)
WIDTHS = (8, 64, 256, 512)


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
def trains(draw, max_packets: int = 40):
    count = draw(st.integers(1, max_packets))
    gaps = draw(st.lists(st.integers(0, 60_000),
                         min_size=count, max_size=count))
    arrivals = np.cumsum(np.asarray(gaps, dtype=np.int64))
    sizes = draw(st.one_of(
        st.integers(64, 1_500),
        st.lists(st.integers(1, 4_096), min_size=count, max_size=count),
    ))
    return arrivals, sizes


class TestTrainExactness:
    @settings(max_examples=60, deadline=None)
    @given(chain=chains(), train=trains())
    def test_vector_matches_scalar_packet_for_packet(self, chain, train):
        arrivals, sizes = train
        size_list = ([sizes] * len(arrivals) if isinstance(sizes, int)
                     else list(sizes))
        chain.reset()
        expected = simulate_train_reference(chain, arrivals.tolist(), size_list)
        expected_state = [(s._next_free_ps, s.transactions_processed, s.busy_ps)
                          for s in chain.stages]
        chain.reset()
        vector_sizes = (sizes if isinstance(sizes, int)
                        else np.asarray(sizes, dtype=np.int64))
        timing = simulate_train(chain, arrivals, vector_sizes)
        assert timing.completed_ps.tolist() == expected
        assert [(s._next_free_ps, s.transactions_processed, s.busy_ps)
                for s in chain.stages] == expected_state

    @settings(max_examples=40, deadline=None)
    @given(chain=chains(), train=trains(max_packets=24),
           split=st.integers(1, 23))
    def test_split_train_equals_whole_train(self, chain, train, split):
        """Carried-in stage occupancy between trains is folded exactly."""
        arrivals, sizes = train
        if split >= len(arrivals):
            split = len(arrivals) - 1
        if split < 1:
            return
        vector_sizes = (sizes if isinstance(sizes, int)
                        else np.asarray(sizes, dtype=np.int64))
        chain.reset()
        whole = simulate_train(chain, arrivals, vector_sizes)
        chain.reset()
        head_sizes = (vector_sizes if isinstance(sizes, int)
                      else vector_sizes[:split])
        tail_sizes = (vector_sizes if isinstance(sizes, int)
                      else vector_sizes[split:])
        head = simulate_train(chain, arrivals[:split], head_sizes)
        tail = simulate_train(chain, arrivals[split:], tail_sizes)
        assert (head.completed_ps.tolist() + tail.completed_ps.tolist()
                == whole.completed_ps.tolist())

    @settings(max_examples=40, deadline=None)
    @given(chain=chains(), size=st.integers(64, 1_500),
           count=st.integers(2, 400))
    def test_sweep_floats_match_reference(self, chain, size, count):
        expected = run_packet_sweep_reference(
            chain, packet_size_bytes=size, packet_count=count)
        actual = run_packet_sweep_vector(
            chain, packet_size_bytes=size, packet_count=count)
        assert actual == expected


class TestThroughputMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(chain=chains(max_stages=3), size=st.integers(64, 1_500),
           freq=st.sampled_from(FREQS), width=st.sampled_from(WIDTHS),
           latency=st.integers(0, 24))
    def test_extra_pipelined_stage_never_raises_throughput(
            self, chain, size, freq, width, latency):
        """An extra stage never helps, up to one clock edge of rounding.

        Throughput is measured over the ``last - first`` completion
        window.  The extra stage re-aligns both endpoints to its own
        clock edges, which can shrink the window by at most one period
        (and its tail can legally *compress* absolute completion times
        -- cut-through forwards the first beat, so a wider final stage
        drains faster).  Beyond that one-edge rounding slack, throughput
        must never increase.
        """
        offered = chain.bandwidth_bps(size) * 0.98
        base, _ = run_packet_sweep_vector(
            chain, packet_size_bytes=size, packet_count=200,
            offered_load_bps=offered)
        extra = PipelineStage(
            "extra", ClockDomain("extra", freq), width,
            latency_cycles=latency, initiation_interval=1)
        extended = PipelineChain("extended", list(chain.stages) + [extra])
        longer, _ = run_packet_sweep_vector(
            extended, packet_size_bytes=size, packet_count=200,
            offered_load_bps=offered)

        gap_ps = size * 8 / offered * 1e12
        arrivals = np.rint(
            np.arange(200, dtype=np.float64) * gap_ps).astype(np.int64)
        chain.reset()
        base_train = simulate_train(chain, arrivals, size)
        extended.reset()
        ext_train = simulate_train(extended, arrivals, size)
        base_window = (base_train.last_completion_ps
                       - base_train.first_completion_ps)
        ext_window = (ext_train.last_completion_ps
                      - ext_train.first_completion_ps)
        period = extra.clock.period_ps
        assert ext_window >= base_window - period
        if base_window > period:
            assert longer * (base_window - period) <= base * base_window * (
                1.0 + 1e-12)


class TestEngineSelection:
    def _chain(self):
        return PipelineChain("engine", [
            PipelineStage("s", ClockDomain("c", 250.0), 64),
        ])

    def test_known_engines(self):
        assert ENGINES == ("auto", "vector", "des")

    def test_auto_picks_vector_for_analytic_chain(self):
        chain = self._chain()
        assert chain_supports_vector(chain)
        assert resolve_engine(chain, "auto") is True
        assert resolve_engine(chain, "vector") is True
        assert resolve_engine(chain, "des") is False

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine(self._chain(), "warp")

    def test_subclassed_stage_downgrades_auto_and_blocks_vector(self):
        class OddStage(PipelineStage):
            pass

        chain = PipelineChain("odd", [
            OddStage("s", ClockDomain("c", 250.0), 64),
        ])
        assert not chain_supports_vector(chain)
        assert resolve_engine(chain, "auto") is False
        with pytest.raises(ConfigurationError):
            resolve_engine(chain, "vector")

    def test_sweep_identical_across_engines(self):
        chain = self._chain()
        des = run_packet_sweep(chain, 256, 500, engine="des")
        vec = run_packet_sweep(chain, 256, 500, engine="vector")
        auto = run_packet_sweep(chain, 256, 500, engine="auto")
        assert des == vec == auto


class TestTrainValidation:
    def _chain(self):
        return PipelineChain("v", [
            PipelineStage("s", ClockDomain("c", 250.0), 64),
        ])

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_train(self._chain(), np.asarray([], dtype=np.int64), 64)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_train(self._chain(),
                           np.asarray([0, 10], dtype=np.int64),
                           np.asarray([64], dtype=np.int64))

    @pytest.mark.parametrize("update_state", [True, False])
    def test_grid_arrivals_rejected(self, update_state):
        """A 2-D grid is a batch, not a train: simulate_trains' job."""
        grid = np.arange(9, dtype=np.int64).reshape(3, 3)
        with pytest.raises(ConfigurationError):
            simulate_train(self._chain(), grid, 64, update_state=update_state)

    def test_scalar_arrivals_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_train(self._chain(), np.asarray(0, dtype=np.int64), 64)

    def test_zero_count_batch_is_noop(self):
        chain = self._chain()
        assert process_batch_vector(chain, 64, 100.0, 0, 0) == (0, 0, 0)
        assert chain.stages[0].transactions_processed == 0

    def test_timing_accessors(self):
        chain = self._chain()
        arrivals = np.asarray([0, 1_000], dtype=np.int64)
        timing = simulate_train(chain, arrivals, 64)
        assert len(timing) == 2
        assert timing.first_completion_ps == int(timing.completed_ps[0])
        assert timing.last_completion_ps == int(timing.completed_ps[-1])
        assert timing.total_latency_ps == int(timing.latencies_ps.sum())
        assert all(isinstance(v, int) for v in timing.latencies_list())
