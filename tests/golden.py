"""The golden response corpus: absolute output bytes, pinned per scenario.

``tests/data/golden.json`` maps every scenario file under
``tests/data/scenarios/`` (the fuzzer's sweep corpus) and
``tests/data/golden/`` (small fleet, epoch-day and build scenarios) to
the sha256 of its canonical service response,
``run_scenario(scenario).response_text()``.  ``tests/test_golden.py``
recomputes every entry, so a change that moves any tier's output bytes
fails tier-1 even when every tier drifts the same way.

A change that is meant to move a digest regenerates the file in the
same commit (``make golden``, i.e. ``python tests/golden.py``) and says
why in CHANGES.md.

Each scenario runs against a fresh sweep cache and artifact store, so
the digests never depend on what ran earlier in the process (responses
are cache-temperature independent anyway; this keeps the check
hermetic).
"""

import hashlib
import json
import pathlib
import sys

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN_FILE = DATA_DIR / "golden.json"
SCENARIO_DIRS = ("scenarios", "golden")


def scenario_files():
    """Every pinned scenario file, as a ``data/``-relative POSIX path."""
    return sorted(
        path.relative_to(DATA_DIR).as_posix()
        for directory in SCENARIO_DIRS
        for path in (DATA_DIR / directory).glob("*.json"))


def response_digest(relative_path: str) -> str:
    """sha256 of one scenario file's canonical response text."""
    from repro.runtime.buildfarm import ArtifactStore
    from repro.runtime.sweep import SweepCache
    from repro.scenario import load_scenario
    from repro.service import run_scenario

    scenario = load_scenario(str(DATA_DIR / relative_path))
    outcome = run_scenario(scenario, cache=SweepCache(),
                           store=ArtifactStore())
    return hashlib.sha256(
        outcome.response_text().encode("utf-8")).hexdigest()


def load_golden():
    with open(GOLDEN_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    sys.path.insert(0, str(DATA_DIR.parents[1] / "src"))
    from repro.fileio import atomic_write_text

    digests = {path: response_digest(path) for path in scenario_files()}
    atomic_write_text(str(GOLDEN_FILE),
                      json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
