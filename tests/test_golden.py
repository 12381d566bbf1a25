"""Golden response corpus: every pinned scenario's response bytes.

See ``tests/golden.py`` for the corpus layout and the re-pin rule.
"""

import pytest

from repro.scenario import load_scenario
from tests.golden import DATA_DIR, load_golden, response_digest, scenario_files

GOLDEN = load_golden()


def test_every_scenario_file_is_pinned():
    assert sorted(GOLDEN) == scenario_files()


def test_corpus_covers_every_tier():
    scenarios = [load_scenario(str(DATA_DIR / path)) for path in GOLDEN]
    assert {scenario.kind for scenario in scenarios} == {
        "sweep", "fleet", "build"}
    assert any(scenario.epochs is not None for scenario in scenarios)
    assert any(scenario.workload.trace for scenario in scenarios
               if scenario.kind == "sweep")
    builds = [scenario for scenario in scenarios if scenario.kind == "build"]
    assert {bool(scenario.devices) for scenario in builds} == {True, False}


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_response_matches_golden_digest(path):
    assert response_digest(path) == GOLDEN[path], (
        f"{path}: response bytes changed; if intended, run `make golden` "
        "and say why in CHANGES.md")
