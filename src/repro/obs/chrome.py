"""Chrome / Perfetto ``trace_event`` export of TraceBus records.

The bus's native JSONL already *resembles* the Chrome trace-event
vocabulary (B/E/X/I record types); this module finishes the mapping so
a trace opens directly in ``chrome://tracing`` or https://ui.perfetto.dev:

* **pid** -- one process row per trace *domain*: the ``device`` (or
  ``domain``) attribute of a span when present, else the default
  process.  ``process_name`` metadata rows label each pid.
* **tid** -- one thread row per subsystem, derived from the first
  dot-segment of the record name (``engine.dispatch`` -> ``engine``,
  ``fleet.round-robin`` -> ``fleet``), labelled with ``thread_name``
  metadata rows.  A span's ``E`` lands on the same pid/tid as its
  ``B`` (resolved by span id), so every track is balanced.
* **ph/ts/dur** -- B/E/X/I map to the phases of the same name;
  timestamps convert from integer picoseconds to the microseconds the
  format expects (exact: ``ts = ts_ps / 1e6`` keeps picosecond
  resolution as a fraction).

The export is a *pure function* of the record list: events are sorted
by ``(ts, emission order)``, ids and track numbers are assigned in
first-seen order, and serialisation uses sorted keys -- two identical
runs export byte-identical JSON.  Unbalanced ``B`` records (a run
interrupted mid-span) are closed with synthetic ``E`` events at the
trace's final timestamp so the output always validates.
"""

import json
from typing import Any, Dict, Iterable, List, Tuple, Union

from repro.fileio import atomic_write_text
from repro.runtime.trace import TraceBus

#: Picoseconds per microsecond (the trace_event unit); conversion uses
#: division so e.g. 5 ps lands at exactly ``5e-06`` us.
_PS_PER_US = 1e6

#: Default process label when a record names no device/domain.
DEFAULT_PROCESS = "sim"


def _record_process(record: Dict[str, Any]) -> str:
    attrs = record.get("attrs")
    if attrs:
        for key in ("device", "domain"):
            value = attrs.get(key)
            if isinstance(value, str) and value:
                return value
    return DEFAULT_PROCESS


def _record_thread(record: Dict[str, Any]) -> str:
    name = record.get("name", "")
    head, _, _ = name.partition(".")
    return head or name or "trace"


class _TrackMapper:
    """First-seen-order pid/tid assignment (deterministic by design)."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}

    def pid(self, process: str) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
        return pid

    def tid(self, pid: int, thread: str) -> int:
        key = (pid, thread)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for other_pid, _ in self._tids if other_pid == pid) + 1
            self._tids[key] = tid
        return tid

    def metadata_events(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        for process, pid in self._pids.items():
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "ts": 0, "args": {"name": process},
            })
        for (pid, thread), tid in self._tids.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "ts": 0, "args": {"name": thread},
            })
        return events


def chrome_trace_events(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Convert TraceBus records into a ``trace_event`` array (list of dicts).

    Metadata (``M``) events come first, then the converted B/E/X/I
    events sorted by timestamp (stable, so same-ts events keep emission
    order and a ``B`` always precedes its ``E``).
    """
    mapper = _TrackMapper()
    events: List[Tuple[float, int, Dict[str, Any]]] = []
    open_tracks: Dict[int, Tuple[int, int, str]] = {}
    last_ts = 0.0
    order = 0
    for record in records:
        kind = record["type"]
        ts = record["ts_ps"] / _PS_PER_US
        if kind == "E":
            # An end event inherits its begin's track; an orphan end
            # (begin dropped by a ring buffer) maps like any record.
            pid, tid, _name = open_tracks.pop(
                record["id"],
                (mapper.pid(_record_process(record)), None, record["name"]),
            )
            if tid is None:
                tid = mapper.tid(pid, _record_thread(record))
        else:
            pid = mapper.pid(_record_process(record))
            tid = mapper.tid(pid, _record_thread(record))
        event: Dict[str, Any] = {
            "ph": kind, "name": record["name"], "ts": ts,
            "pid": pid, "tid": tid,
        }
        if kind == "X":
            event["dur"] = record["dur_ps"] / _PS_PER_US
        if kind == "I":
            event["s"] = "t"
        args: Dict[str, Any] = {"span_id": record["id"]}
        if "parent" in record:
            args["parent"] = record["parent"]
        if "attrs" in record:
            args.update(record["attrs"])
        event["args"] = args
        if kind == "B":
            open_tracks[record["id"]] = (pid, tid, record["name"])
        end_ts = ts + event.get("dur", 0.0)
        if end_ts > last_ts:
            last_ts = end_ts
        events.append((ts, order, event))
        order += 1
    # Close any span the run left open, so B/E counts always balance.
    for span_id, (pid, tid, name) in open_tracks.items():
        events.append((last_ts, order, {
            "ph": "E", "name": name, "ts": last_ts, "pid": pid, "tid": tid,
            "args": {"span_id": span_id, "synthetic_end": True},
        }))
        order += 1
    events.sort(key=lambda item: (item[0], item[1]))
    return mapper.metadata_events() + [event for _ts, _order, event in events]


def export_chrome_json(
    source: Union[TraceBus, Iterable[Dict[str, Any]]],
) -> str:
    """Serialise a bus (or raw record list) as a ``trace_event`` JSON array.

    Keys are sorted and separators fixed; identical runs export
    byte-identical text.
    """
    records = source.records if isinstance(source, TraceBus) else source
    events = chrome_trace_events(records)
    return json.dumps(events, sort_keys=True, separators=(",", ":")) + "\n"


def write_chrome_json(
    source: Union[TraceBus, Iterable[Dict[str, Any]]], path: str,
) -> int:
    """Atomically write the Chrome export; returns the event count."""
    records = source.records if isinstance(source, TraceBus) else source
    events = chrome_trace_events(records)
    atomic_write_text(
        path, json.dumps(events, sort_keys=True, separators=(",", ":")) + "\n")
    return len(events)
