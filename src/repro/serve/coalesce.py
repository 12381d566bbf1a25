"""Request coalescing: fold identical scenarios into one run.

The daemon keys every execution request by ``(kind, scenario_id, slo)``.
While an execution for a key is in flight, further requests for the same
key *attach* to it instead of spawning their own run: one thread does
the work, everyone receives the leader's response bytes.  Once the run
completes, its body stays in a byte-bounded LRU **response memo**, so a
later identical request is a follower of a finished leader: :meth:`join`
hands back the stored bytes and nothing executes at all.

Both are safe because the service layer's ``response_text()`` is a pure
function of the key -- cache temperature, worker count, and wall-clock
never appear in the body -- so a follower's or memo hit's response is
byte-identical to what a solo run would have produced.  The memo is
stricter than that: the daemon stores only bodies of requests without
``slo`` (an SLO report may read wall-clock histograms), and rejected or
failed runs are never stored.

The coalescer is deliberately asyncio-agnostic: it hands out
:class:`concurrent.futures.Future` objects, which the daemon awaits via
``asyncio.wrap_future`` and tests can block on directly.
"""

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Dict, Hashable, Tuple, Union

#: Byte budget of the response memo (bodies only; keys are not counted).
#: A body larger than 1/8 of the budget is never stored, so one huge
#: response cannot flush the whole working set.
MEMO_BUDGET_BYTES = 4 << 20


class RequestCoalescer:
    """In-flight execution table plus a bounded memo of finished bodies."""

    def __init__(self, memo_budget: int = MEMO_BUDGET_BYTES) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, Future] = {}
        self._memo: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._memo_budget = memo_budget
        self._memo_bytes = 0
        self.executions = 0   # requests that became the leader of a run
        self.attached = 0     # requests folded onto an in-flight run
        self.memo_hits = 0    # requests served from the memo
        self.memo_evictions = 0

    def join(self, key: Hashable) -> Tuple[bool, Union[Future, bytes]]:
        """Serve ``key`` from the memo, attach to its run, or lead one.

        Returns ``(leader, pending)``.  On a memo hit ``pending`` is the
        stored body (``bytes``) and ``leader`` is false; otherwise it is
        the run's future.  The leader MUST eventually call
        :meth:`resolve` or :meth:`reject` with that future, or every
        attached request hangs.
        """
        with self._lock:
            body = self._memo.get(key)
            if body is not None:
                self._memo.move_to_end(key)
                self.memo_hits += 1
                return False, body
            future = self._inflight.get(key)
            if future is not None:
                self.attached += 1
                return False, future
            future = Future()
            self._inflight[key] = future
            self.executions += 1
            return True, future

    def resolve(self, key: Hashable, future: Future, value: bytes,
                memoise: bool = True) -> None:
        """Publish the leader's result to every request holding ``future``.

        The key leaves the in-flight table and, with ``memoise``, enters
        the memo in one step, *before* the future resolves: a request
        arriving after completion gets the stored bytes, or leads a
        fresh run when the body was not stored -- never a stale future.
        """
        with self._lock:
            self._retire(key, future)
            if memoise:
                self._store(key, value)
        future.set_result(value)

    def reject(self, key: Hashable, future: Future,
               error: BaseException) -> None:
        """Propagate the leader's failure to every attached request."""
        with self._lock:
            self._retire(key, future)
        future.set_exception(error)

    def _retire(self, key: Hashable, future: Future) -> None:
        if self._inflight.get(key) is future:
            del self._inflight[key]

    def _store(self, key: Hashable, body: bytes) -> None:
        # ``key`` is not in the memo: a leader only exists on a memo miss,
        # and the in-flight table admits one leader per key at a time.
        if len(body) > self._memo_budget // 8:
            return
        self._memo[key] = body
        self._memo_bytes += len(body)
        while self._memo_bytes > self._memo_budget:
            _, evicted = self._memo.popitem(last=False)
            self._memo_bytes -= len(evicted)
            self.memo_evictions += 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "executions": self.executions,
                "attached": self.attached,
                "inflight": len(self._inflight),
                "memo_hits": self.memo_hits,
                "memo_entries": len(self._memo),
                "memo_bytes": self._memo_bytes,
                "memo_evictions": self.memo_evictions,
            }
