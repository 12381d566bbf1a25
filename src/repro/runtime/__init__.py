"""Unified runtime: shared event engine, tracing, and metrics.

This package is the observability subsystem the rest of the tree plugs
into.  A :class:`SimContext` carries the single clock of record, a
span-based :class:`TraceBus`, and a hierarchical
:class:`MetricsRegistry`; ``sim``, ``core``, and ``apps`` components
join it explicitly (a ``context=`` argument), ambiently (``with
SimContext():``), or not at all (each then gets a private context --
the pre-runtime behaviour).

See ``docs/architecture.md`` ("Runtime & observability") for the tour.
"""

import importlib

from repro.runtime.context import (
    ClockRegistry,
    SimContext,
    current_context,
    ensure_context,
    isolated_context_stack,
)
from repro.runtime.metrics import (
    CounterDictView,
    Gauge,
    GaugeDictView,
    MetricsNamespace,
    MetricsRegistry,
)
from repro.runtime.trace import Span, TraceBus

# The tiers resolve lazily on first attribute access (PEP 562).  They
# sit above the primitives imported here: the fleet and sweep tiers
# read their specs from ``repro.scenario``, the build farm reaches back
# into ``core``/``adapters`` (which import the primitives above), and
# the orchestrator pulls in ``obs.slo`` for its autoscaling signal.
_LAZY_EXPORTS = {
    **dict.fromkeys(("FleetResult", "FleetSimulation", "FleetSpec",
                     "PolicyResult", "TenantStats"), "fleet"),
    **dict.fromkeys(("PointResult", "SweepCache", "SweepPoint",
                     "SweepResult", "SweepRunner", "chain_signature",
                     "sweep_cache_key"), "sweep"),
    **dict.fromkeys(("ArtifactStore", "BuildFarm", "BuildPlan",
                     "BuildReport", "BuildTarget", "TargetResult",
                     "fleet_build_plan"), "buildfarm"),
    **dict.fromkeys(("DeltaMismatch", "EpochStats", "FleetState",
                     "Orchestrator", "OrchestratorResult"), "orchestrator"),
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "ArtifactStore",
    "BuildFarm",
    "BuildPlan",
    "BuildReport",
    "BuildTarget",
    "ClockRegistry",
    "CounterDictView",
    "DeltaMismatch",
    "EpochStats",
    "FleetResult",
    "FleetSimulation",
    "FleetSpec",
    "FleetState",
    "Gauge",
    "Orchestrator",
    "OrchestratorResult",
    "GaugeDictView",
    "MetricsNamespace",
    "MetricsRegistry",
    "PointResult",
    "PolicyResult",
    "SimContext",
    "Span",
    "SweepCache",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "TargetResult",
    "TenantStats",
    "TraceBus",
    "chain_signature",
    "current_context",
    "ensure_context",
    "fleet_build_plan",
    "isolated_context_stack",
    "sweep_cache_key",
]
