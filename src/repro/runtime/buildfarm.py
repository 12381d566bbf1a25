"""Fleet-wide build farm: parallel, content-addressed, incremental builds.

The paper's integration flow (section 4) tailors a shell per
(device, role) pair and invokes CAD compilation for each.  At fleet
scale that is thousands of device x role builds, so this module turns
the one-at-a-time :class:`repro.adapters.toolchain.BuildFlow` into an
orchestrated farm:

* a :class:`BuildPlan` expands a device x role matrix (typically the
  production fleet's active device types against the evaluation's
  application roles) into :class:`BuildTarget`\\ s;
* each target becomes a chain of build steps -- ``tailor`` ->
  ``wrap`` (wrapper synthesis) -> ``inspect`` (dependency check) ->
  ``configure`` -> ``fit`` -> ``package`` -- and the per-target chains
  form the build DAG (:meth:`BuildFarm.plan_dag`);
* a :class:`BuildFarm` executes the DAG on a
  ``concurrent.futures.ProcessPoolExecutor`` with **critical-path-first
  scheduling** (largest remaining compile work dispatched first, the
  LPT rule) and merges results in plan order, so reports and manifests
  are byte-identical at any worker count -- the same determinism
  contract as :class:`repro.runtime.sweep.SweepRunner`.

Two reuse layers make warm builds cheap:

1. an on-disk **content-addressed artifact store**
   (:class:`ArtifactStore`): build outputs are keyed by the sha256 of
   (device identity, role demands, module inventory, toolchain version,
   compile effort), written atomically (tempfile + ``os.replace``, like
   ``SweepCache``), and survive across processes -- a warm run skips
   whole builds;
2. intra-run **step-level memoisation**: tailoring never reads the
   device *name*, so device variants with identical hardware (fleet
   revisions, speed grades) share a tailored shell via
   :func:`repro.core.tailoring.tailor_signature`, and targets whose
   whole build key coincides are compiled once and fanned out.

Only plain strings and numbers cross the process boundary: a worker
receives (device name, role name, effort), rebuilds everything from the
catalog, and returns a JSON-compatible artifact.  The artifact's
``manifest`` half is a pure function of the build's content; wall-clock
step timings ride alongside and never enter a hash or a manifest.
"""

import dataclasses
import hashlib
import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adapters.toolchain import (
    BuildFlow,
    StepTiming,
    canonical_json,
    compile_cost_units,
    module_inventory,
)
from repro.adapters.wrapper import InterfaceWrapper
from repro.core.tailoring import TailoredShell, tailor_signature
from repro.errors import ConfigurationError, HarmoniaError
from repro.fileio import atomic_write_text
from repro.metrics.resources import ResourceUsage
from repro.obs.profiler import phase as _profile_phase
from repro.platform.catalog import resolve_device
from repro.platform.fleet import production_fleet
from repro.runtime.context import SimContext
from repro.scenario.spec import DEFAULT_BUILD_SOFTWARE, BuildSpec

#: Content-key schema; bump to invalidate every stored artifact.
BUILD_SCHEMA = 1

#: The per-target step chain, in DAG order.
FARM_STEP_NAMES: Tuple[str, ...] = (
    "tailor", "wrap", "inspect", "configure", "fit", "package")

#: Picoseconds per second (trace timestamps are integer picoseconds).
_PS_PER_S = 1_000_000_000_000


# ---------------------------------------------------------------------------
# Plan and targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuildTarget:
    """One (device, role) cell of the build matrix.

    ``device`` may be a fleet-history variant name; it resolves to its
    base catalog entry (see :func:`repro.platform.catalog.resolve_device`).
    """

    device: str
    role: str

    def label(self) -> str:
        return f"{self.role}@{self.device}"


@dataclass(frozen=True)
class BuildPlan:
    """A resolved device x role build matrix plus the scenario's
    ``build`` section (effort, packaged software), held as is.

    The axes are what the plan adds over the scenario: an empty device
    list resolves to the fleet's active types for a year, an empty app
    list to every registered application (:meth:`from_scenario`).
    """

    devices: Tuple[str, ...]
    roles: Tuple[str, ...]
    build: BuildSpec = BuildSpec()

    def __post_init__(self) -> None:
        if not self.devices or not self.roles:
            raise ConfigurationError(
                "a build plan needs at least one device and one role")

    def expand(self) -> List[BuildTarget]:
        """The matrix in canonical (device, role) order."""
        return [BuildTarget(device=device, role=role)
                for device in self.devices for role in self.roles]

    def __len__(self) -> int:
        return len(self.devices) * len(self.roles)

    @classmethod
    def from_scenario(cls, scenario) -> "BuildPlan":
        """Build the plan a build-kind :class:`repro.scenario.Scenario`
        describes.

        Explicit ``devices`` make an explicit matrix; an empty device
        list means "the production fleet's active types for the
        scenario's year" (the :func:`fleet_build_plan` path).  An empty
        app list means all registered applications either way.
        """
        if scenario.kind != "build":
            raise ConfigurationError(
                f"scenario kind {scenario.kind!r} cannot drive a build plan")
        roles = tuple(scenario.apps) if scenario.apps else None
        if scenario.devices:
            if roles is None:
                from repro.apps import all_applications

                roles = tuple(app.name for app in all_applications())
            return cls(devices=tuple(scenario.devices), roles=roles,
                       build=scenario.build)
        return fleet_build_plan(year=scenario.year, roles=roles,
                                build=scenario.build)


def fleet_build_plan(year: int = 2024, roles: Optional[Sequence[str]] = None,
                     build: BuildSpec = BuildSpec()) -> BuildPlan:
    """The production fleet's build matrix for one deployment year.

    Devices are every type active in ``year`` (variant names included:
    their builds deduplicate onto the base type's content key); roles
    default to the five evaluation applications.
    """
    if roles is None:
        from repro.apps import all_applications

        roles = tuple(app.name for app in all_applications())
    devices = tuple(production_fleet().active_device_names(year))
    if not devices:
        raise ConfigurationError(f"no fleet devices active in {year}")
    return BuildPlan(devices=devices, roles=tuple(roles), build=build)


# ---------------------------------------------------------------------------
# Content-addressed artifact store
# ---------------------------------------------------------------------------

class ArtifactStore:
    """Content-addressed build artifacts, on disk or in memory.

    With a ``root`` directory every artifact lands in
    ``<root>/<key>.json``, written atomically (tempfile +
    ``os.replace``) so an interrupted run leaves either the old artifact
    or the new one -- never a truncated file.  A file that *is* corrupt
    (e.g. predates atomic writes, or was hand-edited) raises
    :class:`ConfigurationError` naming the path rather than surfacing a
    bare JSON traceback.  Without a root the store is a plain in-memory
    dict with the same interface.

    A lock serialises in-memory reads/writes and the hit/miss counters,
    so one store can stay resident in a serving daemon and be shared by
    concurrent request threads (the on-disk path is already atomic).
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root
        if root is not None:
            os.makedirs(root, exist_ok=True)
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key + ".json")

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch one artifact; ``None`` (a miss) when absent."""
        if self.root is None:
            with self._lock:
                entry = self._memory.get(key)
        else:
            path = self._path(key)
            try:
                with open(path, encoding="utf-8") as handle:
                    try:
                        entry = json.load(handle)
                    except ValueError as error:
                        raise ConfigurationError(
                            f"{path} is not a build artifact (corrupt or "
                            f"truncated JSON: {error})"
                        ) from None
            except FileNotFoundError:
                entry = None
        if entry is not None and (not isinstance(entry, dict)
                                  or "manifest" not in entry):
            source = key if self.root is None else self._path(key)
            raise ConfigurationError(
                f"{source} is not a build artifact (no manifest)")
        if entry is None:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return entry

    def store(self, key: str, entry: Dict[str, Any]) -> None:
        """Persist one artifact under its content key (atomic on disk)."""
        if "manifest" not in entry:
            raise ConfigurationError("a build artifact needs a manifest")
        if self.root is None:
            with self._lock:
                self._memory[key] = dict(entry)
            return
        atomic_write_text(
            self._path(key),
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n",
        )


# ---------------------------------------------------------------------------
# One build (worker side)
# ---------------------------------------------------------------------------

#: Process-wide tailored-shell memo keyed by the tailor-signature hash.
#: Device variants sharing hardware resolve to one entry; pool workers
#: forked from a parent that already resolved the plan inherit it warm.
#: :data:`_MEMO_LOCK` guards this memo, :data:`_TAILOR_FAILED`, and
#: :data:`_RESOLVE_MEMO`: the serving daemon resolves builds from
#: concurrent request threads, and interleaved dict writes must not be
#: able to corrupt an entry or double-count a failure.
_TAILOR_MEMO: Dict[str, TailoredShell] = {}

_MEMO_LOCK = threading.Lock()


def _tailor_key(device, demands) -> str:
    payload = canonical_json(tailor_signature(device, demands))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Tailor-signature hashes known to be incompatible, with the original
#: message.  Tailoring is deterministic, so a pair that failed once
#: fails identically forever -- re-running module selection for it on
#: every plan resolution would dominate warm-path time.
_TAILOR_FAILED: Dict[str, str] = {}


def _tailored_shell(device, app) -> Tuple[str, TailoredShell, bool]:
    """Tailor (or reuse) the shell for ``app`` on ``device``.

    Returns (tailor key, shell, memo hit?).  Raises
    :class:`repro.errors.TailoringError` for incompatible pairs.
    """
    from repro.errors import TailoringError

    key = _tailor_key(device, app.role().demands)
    with _MEMO_LOCK:
        shell = _TAILOR_MEMO.get(key)
        if shell is not None:
            return key, shell, True
        failure = _TAILOR_FAILED.get(key)
    if failure is not None:
        raise TailoringError(failure)
    # Tailoring is deterministic: two threads racing here compute
    # interchangeable shells (or identical failures); first store wins.
    try:
        shell = app.tailored_shell(device)
    except TailoringError as error:
        with _MEMO_LOCK:
            _TAILOR_FAILED.setdefault(key, str(error))
        raise
    with _MEMO_LOCK:
        shell = _TAILOR_MEMO.setdefault(key, shell)
    return key, shell, False


def build_one(device_name: str, role_name: str, effort: int = 0,
              software: Tuple[str, ...] = DEFAULT_BUILD_SOFTWARE
              ) -> Dict[str, Any]:
    """Run the full step chain for one (device, role) build.

    Pure function of its arguments (plus the catalog): the returned
    artifact's ``manifest`` is deterministic; ``steps`` carry this run's
    wall-clock timings (perf-counter seconds, for the build Gantt) and
    never enter the manifest.  Raises :class:`HarmoniaError` subclasses
    on tailoring/integration failures.
    """
    from repro.apps import application_by_name
    from repro.core.manifest import shell_manifest

    clock = time.perf_counter
    started = clock()
    device = resolve_device(device_name)
    app = application_by_name(role_name)
    role = app.role()
    project_name = f"{role.name}-{device.name}"
    steps: List[Dict[str, Any]] = []

    def _record(step: str, start: float) -> None:
        steps.append({"step": step, "start_s": start,
                      "wall_s": clock() - start})

    with _profile_phase("buildfarm.build"):
        start = clock()
        with _profile_phase("buildfarm.step"):
            _, shell, _ = _tailored_shell(device, app)
        _record("tailor", start)

        start = clock()
        with _profile_phase("buildfarm.step"):
            wrapper = InterfaceWrapper()
            modules = shell.modules()
            wrapped = [wrapper.wrap(ip) for ip in modules if ip.interfaces]
            wrapper_total = ResourceUsage.total(item.resources
                                                for item in wrapped)
        _record("wrap", start)

        flow = BuildFlow(device)
        start = clock()
        with _profile_phase("buildfarm.step"):
            flow.step_inspect(project_name, modules)
        _record("inspect", start)

        start = clock()
        with _profile_phase("buildfarm.step"):
            flow.step_configure(modules)
        _record("configure", start)

        start = clock()
        with _profile_phase("buildfarm.step"):
            total, timing_report = flow.step_fit(
                project_name, modules,
                extra_resources=wrapper_total + role.resources,
                effort=effort)
        _record("fit", start)

        start = clock()
        with _profile_phase("buildfarm.step"):
            bundle = flow.step_package(project_name, modules, total,
                                       software_components=tuple(software))
        _record("package", start)

    manifest = {
        "schema": BUILD_SCHEMA,
        "target": {"device": device.name, "role": role.name},
        "bundle": {
            "name": bundle.name,
            "artifact_id": bundle.artifact_id,
            "checksum": bundle.bitstream.checksum,
            "toolchain": bundle.bitstream.toolchain,
            "module_names": list(bundle.bitstream.module_names),
            "resources": bundle.bitstream.resources.as_dict(),
            "static_config": bundle.bitstream.static_config,
            "dynamic_config": bundle.bitstream.dynamic_config,
            "software": list(bundle.software_components),
        },
        "wrapper_resources": wrapper_total.as_dict(),
        "timing_model": timing_report.to_json(),
        "shell": shell_manifest(shell),
    }
    return {
        "manifest": manifest,
        "steps": steps,
        "start_s": started,
        "wall_s": clock() - started,
    }


#: Failure kinds that mark a (device, role) pair as *incompatible*: the
#: pair cannot be served no matter how often it is rebuilt (tailoring
#: rejected it, or the tailored design exceeds the device budget).  They
#: stay out of ``build.failed``, which counts unexpected breakage only.
_INCOMPATIBLE_KINDS = frozenset({"TailoringError", "DeploymentError",
                                 "ResourceExhaustedError"})

#: Process-wide memo of *incompatible* build outcomes keyed by content
#: key.  The build is a pure function of its key, so once a (device,
#: role) pair has proven unfit there is no point re-running the flow
#: just to watch it fail the same way; the artifact store deliberately
#: never caches failures, so without this memo every warm re-run would
#: re-execute them.  Unexpected (``failed``) kinds are *not* memoised:
#: they stay re-runnable.
_BUILD_FAILED: Dict[str, Dict[str, str]] = {}


def _execute_build(spec: Tuple[str, str, int, Tuple[str, ...]]) -> Dict[str, Any]:
    """Worker entry: build one target, mapping failures to JSON."""
    device_name, role_name, effort, software = spec
    try:
        return build_one(device_name, role_name, effort=effort,
                         software=software)
    except HarmoniaError as error:
        return {"error": f"{type(error).__name__}: {error}",
                "kind": type(error).__name__}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetResult:
    """One build target's outcome plus its cache/memo provenance.

    ``status`` is one of ``built`` (compiled in this run), ``shared``
    (identical content key as an earlier target in this run),
    ``cached`` (served from the artifact store), ``incompatible``
    (tailoring rejected the device x role pair, or the tailored design
    does not fit the device -- a property of the matrix, rebuilt or
    not) or ``failed`` (a build step raised unexpectedly).
    """

    target: BuildTarget
    status: str
    build_key: str = ""
    manifest: Optional[Dict[str, Any]] = None
    error: str = ""
    steps: Tuple[StepTiming, ...] = ()
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.manifest is not None


class BuildReport:
    """Deterministically merged outcome of one :class:`BuildFarm` run."""

    def __init__(self, plan: BuildPlan, targets: List[TargetResult],
                 workers: int, tailor_memo_hits: int) -> None:
        self.plan = plan
        self.targets = targets
        self.workers = workers
        self.tailor_memo_hits = tailor_memo_hits

    def __len__(self) -> int:
        return len(self.targets)

    def count(self, status: str) -> int:
        return sum(1 for result in self.targets if result.status == status)

    @property
    def built(self) -> int:
        return self.count("built")

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def shared(self) -> int:
        return self.count("shared")

    @property
    def failed(self) -> int:
        return self.count("failed")

    @property
    def incompatible(self) -> int:
        return self.count("incompatible")

    def manifests_jsonl(self) -> str:
        """Every successful target's manifest, one canonical line each.

        A pure function of (plan, store state): byte-identical no matter
        how many workers executed the run -- the determinism artifact
        the benchmark and tests diff.
        """
        lines = [
            canonical_json({"target": result.target.label(),
                            "build_key": result.build_key,
                            "manifest": result.manifest})
            for result in self.targets if result.ok
        ]
        return "".join(line + "\n" for line in lines)

    def to_json(self) -> Dict[str, Any]:
        """Deterministic summary: no wall-clock, no worker count."""
        return {
            "plan": {
                "devices": list(self.plan.devices),
                "roles": list(self.plan.roles),
                **self.plan.build.to_json(),
            },
            "targets": [
                {
                    "device": result.target.device,
                    "role": result.target.role,
                    "status": result.status,
                    "build_key": result.build_key,
                    "checksum": (result.manifest["bundle"]["checksum"]
                                 if result.ok else ""),
                    "error": result.error,
                }
                for result in self.targets
            ],
        }


# ---------------------------------------------------------------------------
# DAG introspection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuildStepNode:
    """One node of the build DAG (for scheduling and introspection)."""

    node_id: str
    step: str
    targets: Tuple[str, ...]      # labels of the targets this node serves
    deps: Tuple[str, ...]
    cost_units: int


@dataclass(frozen=True)
class _Resolved:
    """Parent-side resolution of one target (before any dispatch)."""

    target: BuildTarget
    base_device: str = ""
    tailor_key: str = ""
    build_key: str = ""
    cost_units: int = 0
    error: str = ""


#: Process-wide resolution memo keyed by (base device, role, effort,
#: software): content keys and costs are pure functions of the immutable
#: catalog, so repeated farm runs (warm reruns, yearly matrices sharing
#: device types) skip straight to the stored keys.
_RESOLVE_MEMO: Dict[Tuple[str, str, int, Tuple[str, ...]], _Resolved] = {}


def _count_tailor_key(seen: Dict[str, int], tailor_key: str) -> None:
    """Track per-run tailor-key reuse (first sight is not a hit)."""
    if tailor_key in seen:
        seen[tailor_key] += 1
    else:
        seen[tailor_key] = 0


# ---------------------------------------------------------------------------
# The farm
# ---------------------------------------------------------------------------

class BuildFarm:
    """Executes a :class:`BuildPlan` across workers with artifact reuse.

    ``workers=1`` (the default) builds in-process with no pool;
    ``workers=N`` fans cold builds out over a ``ProcessPoolExecutor``,
    dispatching the largest compile chains first (critical-path-first:
    every per-target chain is an independent path through the DAG, so
    its remaining cost *is* its critical path, and longest-first
    minimises makespan).  Results merge in plan order either way, so
    worker count is invisible in every report and manifest.
    """

    def __init__(self, plan: BuildPlan, workers: int = 1,
                 store: Optional[ArtifactStore] = None,
                 use_cache: bool = True,
                 context: Optional[SimContext] = None) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.plan = plan
        self.workers = workers
        self.store = store if store is not None else ArtifactStore()
        self.use_cache = use_cache
        self.context = context

    # --- parent-side resolution --------------------------------------------

    def _resolve(self, target: BuildTarget,
                 seen_tailor_keys: Dict[str, int]) -> _Resolved:
        try:
            device = resolve_device(target.device)
        except KeyError as error:
            raise ConfigurationError(str(error)) from None
        # Resolution is a pure function of (base device, role, effort,
        # software) -- the catalog is immutable -- so the derived keys
        # and cost are memoised process-wide, like the tailored shells
        # themselves.  Only the per-run bookkeeping stays outside.
        memo_key = (device.name, target.role, self.plan.build.effort,
                    self.plan.build.software)
        with _MEMO_LOCK:
            template = _RESOLVE_MEMO.get(memo_key)
        if template is not None:
            resolved = dataclasses.replace(template, target=target)
            if resolved.tailor_key:
                _count_tailor_key(seen_tailor_keys, resolved.tailor_key)
            return resolved
        resolved = self._resolve_fresh(target, device)
        with _MEMO_LOCK:
            _RESOLVE_MEMO.setdefault(memo_key, resolved)
        if resolved.tailor_key:
            _count_tailor_key(seen_tailor_keys, resolved.tailor_key)
        return resolved

    def _resolve_fresh(self, target: BuildTarget, device) -> _Resolved:
        from repro.apps import application_by_name

        app = application_by_name(target.role)
        role = app.role()
        try:
            tailor_key, shell, _memo_hit = _tailored_shell(device, app)
        except HarmoniaError as error:
            return _Resolved(target=target,
                             error=f"{type(error).__name__}: {error}")
        modules = shell.modules()
        total = ResourceUsage.total(ip.resources for ip in modules)
        content = {
            "schema": BUILD_SCHEMA,
            "device": {
                "name": device.name,
                "chip": device.chip,
                "family": device.family.name,
                "board_vendor": device.board_vendor.value,
            },
            "role": {
                "name": role.name,
                "architecture": role.architecture.value,
                "resources": role.resources.as_dict(),
            },
            "tailor": tailor_key,
            "modules": module_inventory(modules),
            "toolchain": f"{device.toolchain.name}-{device.toolchain.version}",
            "effort": self.plan.build.effort,
            "software": list(self.plan.build.software),
        }
        build_key = hashlib.sha256(
            canonical_json(content).encode("utf-8")).hexdigest()
        return _Resolved(
            target=target, base_device=device.name, tailor_key=tailor_key,
            build_key=build_key,
            cost_units=compile_cost_units(modules, total),
        )

    def _resolve_all(self) -> Tuple[List[_Resolved], int]:
        seen: Dict[str, int] = {}
        with _profile_phase("buildfarm.plan"):
            resolved = [self._resolve(target, seen)
                        for target in self.plan.expand()]
        return resolved, sum(seen.values())

    def plan_dag(self) -> List[BuildStepNode]:
        """The build DAG: shared tailor nodes feeding per-build chains.

        Targets with equal build keys collapse onto one chain; chains
        with equal tailor keys share their ``tailor`` root.  Node order
        is deterministic (plan order of first appearance).
        """
        resolved, _ = self._resolve_all()
        nodes: List[BuildStepNode] = []
        tailor_nodes: Dict[str, int] = {}
        chains: Dict[str, int] = {}
        labels: Dict[str, List[str]] = {}
        for item in resolved:
            if item.error:
                continue
            labels.setdefault(item.build_key, []).append(item.target.label())
        for item in resolved:
            if item.error or item.build_key in chains:
                continue
            chains[item.build_key] = 1
            served = tuple(labels[item.build_key])
            tailor_id = f"tailor:{item.tailor_key[:12]}"
            if item.tailor_key not in tailor_nodes:
                tailor_nodes[item.tailor_key] = 1
                nodes.append(BuildStepNode(
                    node_id=tailor_id, step="tailor", targets=served,
                    deps=(), cost_units=0))
            previous = tailor_id
            for step in FARM_STEP_NAMES[1:]:
                node_id = f"{step}:{item.build_key[:12]}"
                cost = item.cost_units if step == "fit" else 0
                nodes.append(BuildStepNode(
                    node_id=node_id, step=step, targets=served,
                    deps=(previous,), cost_units=cost))
                previous = node_id
        return nodes

    # --- execution ----------------------------------------------------------

    def run(self) -> BuildReport:
        resolved, memo_hits = self._resolve_all()
        farm_start = time.perf_counter()

        entries: Dict[str, Dict[str, Any]] = {}
        statuses: Dict[int, str] = {}
        pending: List[int] = []
        for index, item in enumerate(resolved):
            if item.error:
                statuses[index] = "incompatible"
                continue
            with _MEMO_LOCK:
                memoised_failure = _BUILD_FAILED.get(item.build_key)
            if memoised_failure is not None:
                entries[item.build_key] = dict(memoised_failure)
                statuses[index] = "failed"  # reclassified from the entry
                continue
            entry = self.store.lookup(item.build_key) if self.use_cache else None
            if entry is not None:
                entries[item.build_key] = entry
                statuses[index] = "cached"
            elif item.build_key in entries or any(
                    resolved[j].build_key == item.build_key for j in pending):
                statuses[index] = "shared"
            else:
                pending.append(index)
                statuses[index] = "built"

        if pending:
            # Critical-path-first: each pending chain's remaining work is
            # its compile cost, so dispatch the heaviest chains first.
            ordered = sorted(pending,
                             key=lambda i: (-resolved[i].cost_units, i))
            if self.workers > 1:
                self._run_pooled(ordered, resolved, entries)
            else:
                for index in ordered:
                    item = resolved[index]
                    entries[item.build_key] = _execute_build(
                        (item.base_device, item.target.role,
                         self.plan.build.effort, self.plan.build.software))
            for index in pending:
                key = resolved[index].build_key
                entry = entries[key]
                if "error" in entry:
                    if entry.get("kind") in _INCOMPATIBLE_KINDS:
                        with _MEMO_LOCK:
                            _BUILD_FAILED[key] = {"error": entry["error"],
                                                  "kind": entry["kind"]}
                elif self.use_cache:
                    self.store.store(
                        key, {"schema": BUILD_SCHEMA,
                              "manifest": entry["manifest"]})

        results: List[TargetResult] = []
        for index, item in enumerate(resolved):
            status = statuses[index]
            if status == "incompatible":
                results.append(TargetResult(target=item.target,
                                            status=status, error=item.error))
                continue
            entry = entries[item.build_key]
            if "error" in entry:
                outcome = ("incompatible"
                           if entry.get("kind") in _INCOMPATIBLE_KINDS
                           else "failed")
                results.append(TargetResult(
                    target=item.target, status=outcome,
                    build_key=item.build_key, error=entry["error"]))
                continue
            steps = tuple(
                StepTiming(step["step"], step["wall_s"])
                for step in entry.get("steps", ())
            ) if status == "built" else ()
            results.append(TargetResult(
                target=item.target, status=status,
                build_key=item.build_key, manifest=entry["manifest"],
                steps=steps, wall_s=entry.get("wall_s", 0.0)
                if status == "built" else 0.0,
            ))
        report = BuildReport(self.plan, results, self.workers, memo_hits)
        self._publish(report, resolved, entries, farm_start)
        return report

    def _run_pooled(self, ordered: List[int], resolved: List[_Resolved],
                    entries: Dict[str, Dict[str, Any]]) -> None:
        """Fan pending chains out over a process pool, heaviest first."""
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {}
            for index in ordered:
                item = resolved[index]
                future = pool.submit(_execute_build, (
                    item.base_device, item.target.role,
                    self.plan.build.effort, self.plan.build.software))
                futures[future] = item.build_key
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    entries[futures[future]] = future.result()

    # --- observability -------------------------------------------------------

    def _publish(self, report: BuildReport, resolved: List[_Resolved],
                 entries: Dict[str, Dict[str, Any]],
                 farm_start: float) -> None:
        """Fold the run into the context's metrics and trace (if any)."""
        context = self.context
        if context is None:
            return
        metrics = context.metrics
        metrics.increment("build.targets", len(report))
        for status in ("built", "cached", "shared", "failed", "incompatible"):
            count = report.count(status)
            if count:
                metrics.increment(f"build.{status}", count)
        metrics.increment("build.store.hits", self.store.hits)
        metrics.increment("build.store.misses", self.store.misses)
        if report.tailor_memo_hits:
            metrics.increment("build.memo.tailor_hits",
                              report.tailor_memo_hits)
        metrics.set_gauge("build.unique_builds",
                          len({item.build_key for item in resolved
                               if item.build_key}))

        executed = [result for result in report.targets
                    if result.status == "built"]
        raw = {item.build_key: entries.get(item.build_key, {})
               for item in resolved if item.build_key}
        base = min((raw[result.build_key].get("start_s", farm_start)
                    for result in executed), default=farm_start)

        for result in report.targets:
            attrs = {"device": result.target.device,
                     "role": result.target.role}
            if result.status == "built":
                entry = raw[result.build_key]
                start = max(0.0, entry.get("start_s", base) - base)
                span_id = context.trace.complete(
                    "build.target",
                    int(start * _PS_PER_S),
                    int((start + entry.get("wall_s", 0.0)) * _PS_PER_S),
                    status=result.status, **attrs)
                metrics.observe("build.target.wall_ps",
                                int(entry.get("wall_s", 0.0) * _PS_PER_S))
                for step in entry.get("steps", ()):
                    step_start = max(0.0, step["start_s"] - base)
                    context.trace.complete(
                        "build." + step["step"],
                        int(step_start * _PS_PER_S),
                        int((step_start + step["wall_s"]) * _PS_PER_S),
                        parent=span_id, **attrs)
                    metrics.observe(f"build.step.{step['step']}.wall_ps",
                                    int(step["wall_s"] * _PS_PER_S))
            elif result.status in ("cached", "shared"):
                context.trace.instant("build." + result.status,
                                      ts_ps=0, **attrs)
            else:
                context.trace.instant("build." + result.status, ts_ps=0,
                                      error=result.error, **attrs)
