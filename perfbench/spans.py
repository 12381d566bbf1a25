"""In-memory span recorder for the traced run, and its self-time report.

A span has a name, a start and end (perf-counter ns), the span that
caused it, and the id of the request it belongs to.  Spans are kept in
memory and written out once, when the run ends.  A span's self time is
its duration minus the time its direct children cover.
"""

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("span_id", "name", "parent", "request", "start_ns",
                 "end_ns")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 request: Optional[str], start_ns: int) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start_ns = start_ns
        self.end_ns = start_ns

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> Dict:
        return {"id": self.span_id, "name": self.name, "parent": self.parent,
                "request": self.request, "start_ns": self.start_ns,
                "end_ns": self.end_ns}


class SpanRecorder:
    """Records nested spans; disabled, ``span`` only yields ``None``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None
             ) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(len(self.spans), name,
                    parent.span_id if parent is not None else None,
                    request, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> Dict[int, int]:
        """Span id -> duration minus the duration of its direct children."""
        own = {span.span_id: span.duration_ns for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_ns
        return own

    def by_name(self) -> Dict[str, List[int]]:
        """Span name -> self times (ns) of every span with that name."""
        own = self.self_times_ns()
        table: Dict[str, List[int]] = {}
        for span in self.spans:
            table.setdefault(span.name, []).append(own[span.span_id])
        return table

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
