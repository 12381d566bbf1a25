"""Open-loop HTTP load generator and the latency statistics it reports.

Requests are due on a fixed schedule (``start + index / rate``) no
matter how fast the daemon answers; each request is timed from its due
time, so a stall also counts against every request queued behind it.
At most ``connections`` requests are in flight (one thread each), which
on a small machine keeps the generator from competing with the daemon
for more cores than it has.  A request that could not be sent on time
because every connection was busy shows up as generator lateness.

This generator is independent of ``repro.serve.LoadGenerator`` (a
closed loop) and of ``repro.serve.client``: the benchmark must not
measure the program with the program's own client code.
"""

import math
import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

#: A reported tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10
#: The tail percentile the ladder's latency limit applies to.  On a
#: 2-core VM, p99 over a 1 s step is set by the odd host-side stall;
#: p90 moves only when queues build.  Step reports also print p99.
TAIL_CEILING = 0.90


@dataclass
class Sample:
    """One request: schedule slot, timings (perf-counter s) and outcome."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return max(0.0, self.sent - self.due)


def due_times(start: float, rate: float, count: int) -> List[float]:
    """The open-loop schedule: request ``i`` is due at ``start + i/rate``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + index / rate for index in range(count)]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0,1])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    if weight == 0 or ordered[high] == ordered[low]:
        return ordered[low]       # also keeps inf (failed) values exact
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def tail_fraction(count: int, ceiling: float = TAIL_CEILING) -> float:
    """The highest percentile (<= ``ceiling``) with enough samples beyond it.

    At least :data:`TAIL_SAMPLES_BEYOND` samples must lie above the
    reported percentile.  With too few samples for any percentile above
    the median to qualify, the median itself is reported.
    """
    if count <= 0:
        raise ValueError("tail of no samples")
    fraction = 1.0 - TAIL_SAMPLES_BEYOND / count
    return max(0.5, min(ceiling, fraction))


def generator_cpu_id() -> int:
    """The CPU the generator runs on: the lowest one it may use."""
    return min(os.sched_getaffinity(0))


@contextmanager
def generator_cpu() -> Iterator[None]:
    """Pin the calling thread, and threads it starts, to one CPU.

    The generator then stays put instead of migrating between CPUs.  A
    daemon started with ``cpus={generator_cpu_id()}`` shares that CPU,
    so every hand-off between the two stays on it.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {generator_cpu_id()})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def http_post(host: str, port: int, path: str, body: bytes,
              timeout: float) -> Tuple[int, bytes]:
    """One ``Connection: close`` HTTP/1.1 POST; returns (status, body)."""
    head = (f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return _exchange(host, port, head.encode("latin-1") + body, timeout)


def http_get(host: str, port: int, path: str,
             timeout: float) -> Tuple[int, bytes]:
    head = (f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Connection: close\r\n\r\n")
    return _exchange(host, port, head.encode("latin-1"), timeout)


def _exchange(host: str, port: int, request: bytes,
              timeout: float) -> Tuple[int, bytes]:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65_536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ConnectionError("truncated HTTP response")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2:
        raise ConnectionError("malformed HTTP status line")
    return int(status_line[1]), body


#: A request sender: ``index -> (status, body)``; raises on transport error.
Sender = Callable[[int], Tuple[int, bytes]]


def run_open_loop(send: Sender, rate: float, count: int,
                  connections: int = 2,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> List[Sample]:
    """Issue ``count`` requests due at ``rate`` per second.

    Each of ``connections`` threads takes the next schedule slot, waits
    until it is due, sends it and records the outcome; a transport error
    is recorded as status 0.  Returns the samples in schedule order.
    """
    samples: List[Optional[Sample]] = [None] * count
    lock = threading.Lock()
    next_index = [0]
    start = clock() + 0.005
    schedule = due_times(start, rate, count)

    def worker() -> None:
        while True:
            with lock:
                index = next_index[0]
                if index >= count:
                    return
                next_index[0] += 1
            due = schedule[index]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                status, body = send(index)
            except OSError:
                status, body = 0, b""
            samples[index] = Sample(index, due, sent, clock(), status, body)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(max(1, connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for sample in samples if sample is not None]


@dataclass
class StepReport:
    """Latency and validity figures for one rate step."""

    rate: float
    samples: int
    failed: int
    p50_ms: float
    tail_ms: float
    tail_pct: float
    p99_ms: float
    late_p50_ms: float
    late_max_ms: float
    achieved_rps: float
    backlog_grew: bool

    def meets(self, limit_ms: float) -> bool:
        """Tail under ``limit_ms``, nothing failed, backlog not growing."""
        return (self.failed == 0 and self.tail_ms < limit_ms
                and not self.backlog_grew)


def step_report(rate: float, samples: Sequence[Sample],
                ok: Callable[[Sample], bool], limit_ms: float) -> StepReport:
    """Summarise one step; ``ok`` decides whether a sample succeeded.

    A failed request counts as missing the latency limit: its latency
    is replaced by infinity before the percentiles are taken.  The
    backlog grew when the last quarter of the step was sent later than
    the first quarter by more than the latency limit.
    """
    if not samples:
        raise ValueError("empty step")
    latencies = [sample.latency_s * 1e3 if ok(sample) else math.inf
                 for sample in samples]
    failed = sum(1 for value in latencies if math.isinf(value))
    lates = [sample.late_s * 1e3 for sample in samples]
    quarter = max(1, len(samples) // 4)
    backlog = (percentile(lates[-quarter:], 0.5)
               - percentile(lates[:quarter], 0.5))
    span = max(sample.done for sample in samples) - samples[0].due
    fraction = tail_fraction(len(samples))
    return StepReport(
        rate=rate, samples=len(samples), failed=failed,
        p50_ms=percentile(latencies, 0.5),
        tail_ms=percentile(latencies, fraction),
        tail_pct=round(fraction * 100, 2),
        p99_ms=percentile(latencies, tail_fraction(len(samples), 0.99)),
        late_p50_ms=percentile(lates, 0.5),
        late_max_ms=max(lates),
        achieved_rps=len(samples) / span if span > 0 else 0.0,
        backlog_grew=backlog > limit_ms,
    )
