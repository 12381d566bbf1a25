"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names; ``run.py`` refuses to print a
result whose names differ from the ones below.
"""

import re

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Untraced (``--trace 0``) metrics, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Traced (``--trace 1``) metrics, reported by every workload.
PER_LAYER = {
    "scenario.parse_us": "us",
    "scenario.id_us": "us",
    "sweep.key_us": "us",
    "sweep.probe_us": "us",
    "sweep.store_us": "us",
    "sweep.hit_ratio": "ratio",
    "sweep.probed_points": "count",
    "sweep.evictions": "count",
    "vector.fused_ms": "ms",
    "vector.packets_per_s": "1/s",
    "sweep.fused_points": "count",
    "sweep.fused_groups": "count",
    "des.point_ms": "ms",
    "serve.pool_dispatches": "count",
    "build.cold_ms": "ms",
    "build.warm_us": "us",
    "service.run_us": "us",
    "service.serialize_us": "us",
    "serve.overhead_ms": "ms",
    "serve.daemon_p50_ms": "ms",
    "serve.daemon_p99_ms": "ms",
    "serve.shed": "count",
    "serve.quota_rejections": "count",
    "serve.coalesce_attached": "count",
    "fleet.setup_ms": "ms",
    "fleet.assign_ms.least-loaded": "ms",
    "fleet.assign_ms.flow-hash": "ms",
    "fleet.assign_ms.round-robin": "ms",
    "fleet.policy_ms.least-loaded": "ms",
    "fleet.policy_ms.flow-hash": "ms",
    "fleet.policy_ms.round-robin": "ms",
    "fleet.serialize_ms": "ms",
    "orchestrator.setup_ms": "ms",
    "orchestrator.epoch_ms": "ms",
    "orchestrator.serialize_ms": "ms",
    "cli.import_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
    "bench.generator_late_ms": "ms",
}


def expected(trace: bool) -> dict:
    return PER_LAYER if trace else END_TO_END
