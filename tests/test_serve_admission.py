"""Admission control and request coalescing, in isolation.

Token buckets and the bounded queue use an injected clock, so every
assertion here is deterministic -- no sleeps, no load-dependent flakes.
"""

import sys
import threading
from concurrent.futures import Future

import pytest

from repro.errors import ConfigurationError
from repro.serve import AdmissionController, RequestCoalescer, TokenBucket


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False]
        clock.advance(0.5)   # 1 token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(3_600.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_bad_parameters_are_loud(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_quota_disabled_by_default(self):
        admission = AdmissionController(max_queue=4)
        assert all(admission.check_quota("anyone") for _ in range(1_000))
        assert admission.quota_rejections == 0

    def test_quotas_are_per_tenant(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_queue=4, quota_rps=1.0, quota_burst=1.0, clock=clock)
        assert admission.check_quota("alpha")
        assert not admission.check_quota("alpha")   # alpha's bucket empty
        assert admission.check_quota("beta")        # beta unaffected
        assert admission.quota_rejections == 1
        clock.advance(1.0)
        assert admission.check_quota("alpha")       # refilled

    def test_default_burst_is_twice_rate(self):
        admission = AdmissionController(max_queue=1, quota_rps=5.0)
        assert admission.quota_burst == 10.0

    def test_queue_bound_sheds_then_recovers(self):
        admission = AdmissionController(max_queue=2)
        assert admission.try_enter()
        assert admission.try_enter()
        assert not admission.try_enter()
        assert admission.shed == 1
        assert admission.queue_depth == 2
        admission.leave()
        assert admission.try_enter()

    def test_unbalanced_leave_is_loud(self):
        admission = AdmissionController(max_queue=1)
        with pytest.raises(ConfigurationError):
            admission.leave()

    def test_bad_bounds_are_loud(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=1, quota_burst=0.0)

    def test_concurrent_entries_respect_the_bound(self):
        admission = AdmissionController(max_queue=8)
        admitted = []
        barrier = threading.Barrier(32)

        def worker():
            barrier.wait()
            if admission.try_enter():
                admitted.append(1)

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 8
        assert admission.queue_depth == 8
        assert admission.shed == 24


class TestRequestCoalescer:
    def test_leader_then_followers_share_one_future(self):
        coalescer = RequestCoalescer()
        leader, future = coalescer.join("key")
        assert leader
        for _ in range(3):
            is_leader, attached = coalescer.join("key")
            assert not is_leader
            assert attached is future
        assert coalescer.counters() == {
            "executions": 1, "attached": 3, "inflight": 1,
            "memo_hits": 0, "memo_entries": 0, "memo_bytes": 0,
            "memo_evictions": 0}
        coalescer.resolve("key", future, b"payload")
        assert future.result(timeout=1) == b"payload"
        assert coalescer.inflight == 0

    def test_distinct_keys_never_share(self):
        coalescer = RequestCoalescer()
        _, future_a = coalescer.join(("sweep", "aaa", None))
        _, future_b = coalescer.join(("sweep", "bbb", None))
        assert future_a is not future_b
        assert coalescer.executions == 2

    def test_completion_retires_the_key(self):
        coalescer = RequestCoalescer()
        leader, future = coalescer.join("key")
        coalescer.resolve("key", future, b"one")
        assert coalescer.inflight == 0
        again, stored = coalescer.join("key")
        assert not again                  # served from the memo ...
        assert stored == future.result(timeout=1) == b"one"
        counters = coalescer.counters()  # ... not the stale future
        assert (counters["executions"], counters["attached"],
                counters["memo_hits"]) == (1, 0, 1)

    def test_rejection_propagates_to_followers(self):
        coalescer = RequestCoalescer()
        _, future = coalescer.join("key")
        _, attached = coalescer.join("key")
        coalescer.reject("key", future, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            attached.result(timeout=1)

    def test_concurrent_joins_elect_exactly_one_leader(self):
        coalescer = RequestCoalescer()
        barrier = threading.Barrier(16)
        leaders = []
        futures = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            leader, future = coalescer.join("key")
            with lock:
                futures.append(future)
                if leader:
                    leaders.append(future)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(leaders) == 1
        assert len(set(map(id, futures))) == 1
        assert coalescer.executions == 1
        assert coalescer.attached == 15



class TestResponseMemo:
    @staticmethod
    def _run(coalescer, key, body):
        leader, future = coalescer.join(key)
        assert leader
        coalescer.resolve(key, future, body)

    def test_lru_evicts_the_least_recent_body_under_a_small_budget(self):
        coalescer = RequestCoalescer(memo_budget=64)    # 8-byte entry cap
        for index in range(8):
            self._run(coalescer, f"k{index}", b"%08d" % index)
        assert coalescer.join("k0") == (False, b"00000000")  # now recent
        self._run(coalescer, "k8", b"00000008")
        counters = coalescer.counters()
        assert (counters["memo_entries"], counters["memo_bytes"],
                counters["memo_evictions"]) == (8, 64, 1)
        leader, _ = coalescer.join("k1")      # the LRU entry fell out
        assert leader
        assert coalescer.join("k0") == (False, b"00000000")
        assert coalescer.memo_hits == 2

    def test_oversize_body_is_not_stored(self):
        coalescer = RequestCoalescer(memo_budget=64)
        self._run(coalescer, "big", b"x" * 9)         # > 64 // 8
        self._run(coalescer, "fits", b"x" * 8)
        assert coalescer.counters()["memo_entries"] == 1
        leader, future = coalescer.join("big")
        assert leader and isinstance(future, Future)

    def test_rejected_run_is_not_stored_and_the_next_join_leads(self):
        coalescer = RequestCoalescer()
        _, future = coalescer.join("key")
        _, attached = coalescer.join("key")
        coalescer.reject("key", future, RuntimeError("boom"))
        again, fresh = coalescer.join("key")
        assert again
        assert isinstance(fresh, Future) and fresh is not future
        assert not fresh.done()
        counters = coalescer.counters()
        assert (counters["memo_entries"], counters["memo_hits"],
                counters["executions"]) == (0, 0, 2)

    @pytest.mark.parametrize("budget, memoise", [
        (0, True),       # nothing fits the memo
        (1 << 20, False),  # an SLO request's body is never stored
    ])
    def test_in_flight_table_never_hands_out_a_stale_future(
            self, budget, memoise):
        coalescer = RequestCoalescer(memo_budget=budget)
        finished = []
        for _ in range(3):
            leader, future = coalescer.join("key")
            assert leader and not future.done()
            assert all(future is not old for old in finished)
            coalescer.resolve("key", future, b"body", memoise=memoise)
            finished.append(future)
        assert coalescer.counters()["memo_entries"] == 0
        assert coalescer.inflight == 0

    def test_concurrent_joins_and_resolves_keep_the_books(self):
        coalescer = RequestCoalescer(memo_budget=64)   # 8 bodies: evicts
        keys = [f"k{index:02d}" for index in range(12)]
        joins_per_thread, threads_count = 300, 16
        wrong = []

        def worker(seed):
            for step in range(joins_per_thread):
                key = keys[(seed * 7 + step) % len(keys)]
                expected = key.encode().ljust(8, b".")
                leader, pending = coalescer.join(key)
                if leader:
                    coalescer.resolve(key, pending, expected)
                body = (pending if isinstance(pending, bytes)
                        else pending.result(timeout=10))
                if body != expected:
                    wrong.append((key, body))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        counters = coalescer.counters()
        assert (counters["executions"] + counters["attached"]
                + counters["memo_hits"]) == joins_per_thread * threads_count
        assert counters["inflight"] == 0
        assert counters["memo_bytes"] == 8 * counters["memo_entries"] <= 64
        assert counters["memo_evictions"] >= len(keys) - 8
