"""Prometheus text-format exposition of a MetricsRegistry.

Maps the registry's dot-path tree onto the exposition format v0.0.4
(the ``text/plain`` scrape body every Prometheus server ingests):

* the **last** dot segment becomes the metric family name (sanitised,
  ``harmonia_`` prefixed); the remaining prefix becomes a ``path``
  label, so ``fleet.round-robin.p99_ns`` lands as
  ``harmonia_p99_ns{path="fleet.round-robin"}`` -- one family per
  measurement kind, one labelled series per subsystem that reports it;
* :class:`~repro.sim.stats.Counter` -> ``counter`` (``_total`` suffix,
  per convention);
* :class:`~repro.runtime.metrics.Gauge` -> ``gauge``;
* :class:`~repro.sim.stats.LatencyStats` -> a ``summary`` family with
  exact ``quantile`` series (p50/p90/p99, nearest-rank over the stored
  samples) plus ``_sum``/``_count``; values stay in picoseconds, the
  registry's native unit (family names carry their unit suffix);
* windowed histograms (the optional ``histograms`` mapping of dot-path
  -> :class:`~repro.obs.window.HistogramSnapshot`) -> native
  ``histogram`` families: cumulative ``le``-labelled ``_bucket``
  series, the ``+Inf`` bucket, and ``_sum``/``_count`` -- what the
  serving daemon's sliding-window telemetry scrapes as.

Label values are escaped per the text-format spec (backslash, newline,
double-quote), so registry paths and telemetry labels containing any
byte still emit well-formed exposition.

Families are emitted in sorted-name order, each with exactly one
``# HELP`` and one ``# TYPE`` line; registry paths are unique, so the
(family, labels) series set is duplicate-free by construction -- the
shape tests pin both properties.  Output is a pure function of the
registry contents: identical snapshots expose byte-identical text.
"""

import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.fileio import atomic_write_text
from repro.runtime.metrics import Gauge, MetricsRegistry
from repro.sim.stats import Counter, LatencyStats

#: Every family name gets this prefix (the exporter's namespace).
NAMESPACE = "harmonia"

#: Summary quantiles exposed for every latency histogram.
QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitise(segment: str) -> str:
    name = _INVALID_METRIC_CHARS.sub("_", segment)
    if name and name[0].isdigit():
        name = "_" + name
    return name or "_"


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    # Integers expose without a trailing ``.0`` (Prometheus accepts
    # both; the integer form diffs cleaner and matches counter idiom).
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class _Family:
    """One metric family: HELP/TYPE header plus its labelled series."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.lines: List[str] = []

    def render(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
            *self.lines,
        ]


def _labels(prefix: str, extra: str = "") -> str:
    parts = []
    if prefix:
        parts.append(f'path="{_escape_label(prefix)}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus_text(registry: MetricsRegistry,
                       histograms: Optional[Mapping[str, Any]] = None
                       ) -> str:
    """The whole registry as one exposition-format scrape body.

    ``histograms`` adds native ``histogram`` families from snapshot
    objects with ``bounds`` / ``cumulative`` / ``count`` / ``sum``
    attributes (duck-typed so :mod:`repro.obs.window` need not import
    here); keys are dot-paths named like registry paths, so the same
    last-segment/``path``-label mapping applies.
    """
    families: Dict[str, _Family] = {}

    def family(base: str, kind: str, help_text: str) -> _Family:
        name = f"{NAMESPACE}_{base}"
        existing = families.get(name)
        if existing is not None and existing.kind != kind:
            # Two registry paths share a last segment but not a metric
            # kind; keep both by suffixing the newcomer's kind.
            name = f"{name}_{kind}"
        found = families.get(name)
        if found is None:
            found = families[name] = _Family(name, kind, help_text)
        return found

    for path in registry.paths():
        metric = registry.get(path)
        prefix, _, leaf = path.rpartition(".")
        base = _sanitise(leaf)
        if isinstance(metric, Counter):
            fam = family(
                f"{base}_total", "counter",
                f"Counter '{leaf}' from the Harmonia metrics registry.",
            )
            fam.lines.append(
                f"{fam.name}{_labels(prefix)} {_format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            fam = family(
                base, "gauge",
                f"Gauge '{leaf}' from the Harmonia metrics registry.",
            )
            fam.lines.append(
                f"{fam.name}{_labels(prefix)} {_format_value(metric.value)}")
        elif isinstance(metric, LatencyStats):
            fam = family(
                base, "summary",
                f"Latency summary '{leaf}' (picoseconds) from the "
                f"Harmonia metrics registry.",
            )
            count = metric.count
            if count:
                for quantile in QUANTILES:
                    quantile_label = 'quantile="%g"' % quantile
                    fam.lines.append(
                        f"{fam.name}{_labels(prefix, quantile_label)} "
                        f"{_format_value(metric.percentile_ps(quantile))}"
                    )
                total = metric.mean_ps * count
            else:
                total = 0.0
            fam.lines.append(
                f"{fam.name}_sum{_labels(prefix)} {_format_value(total)}")
            fam.lines.append(
                f"{fam.name}_count{_labels(prefix)} {count}")

    for path in sorted(histograms or {}):
        snapshot = histograms[path]
        prefix, _, leaf = path.rpartition(".")
        fam = family(
            _sanitise(leaf), "histogram",
            f"Windowed histogram '{leaf}' (picoseconds) from the "
            f"Harmonia serve telemetry.",
        )
        for bound, seen in zip(snapshot.bounds, snapshot.cumulative):
            bound_label = f'le="{_format_value(bound)}"'
            fam.lines.append(
                f"{fam.name}_bucket{_labels(prefix, bound_label)} {seen}")
        inf_label = 'le="+Inf"'
        fam.lines.append(
            f"{fam.name}_bucket{_labels(prefix, inf_label)} "
            f"{snapshot.count}")
        fam.lines.append(
            f"{fam.name}_sum{_labels(prefix)} "
            f"{_format_value(snapshot.sum)}")
        fam.lines.append(
            f"{fam.name}_count{_labels(prefix)} {snapshot.count}")

    lines: List[str] = []
    for name in sorted(families):
        lines.extend(families[name].render())
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_text(registry: MetricsRegistry, path: str) -> int:
    """Atomically write the exposition text; returns the line count."""
    text = to_prometheus_text(registry)
    atomic_write_text(path, text)
    return text.count("\n")
