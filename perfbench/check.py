"""Correctness checks: every output is compared with an in-process oracle.

Served bodies must equal ``run_scenario(s).response_text()`` byte for
byte.  CLI fleet outputs must equal the in-process
``run_fleet_service`` payload once ``elapsed_s`` -- the only wall-clock
field in fleet and epoch outputs -- is removed.
"""

import json
from typing import Any, Dict

#: The one wall-clock field the fleet CLI adds to its JSON output.
WALL_CLOCK_FIELD = "elapsed_s"


def strip_wall_clock(payload: Dict[str, Any]) -> Dict[str, Any]:
    """``payload`` without its top-level wall-clock field."""
    return {key: value for key, value in payload.items()
            if key != WALL_CLOCK_FIELD}


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Oracle:
    """In-process reference results with their own sweep cache and
    artifact store, independent of any state in the daemon."""

    def __init__(self) -> None:
        from repro.runtime.buildfarm import ArtifactStore
        from repro.runtime.sweep import SweepCache

        self.cache = SweepCache(max_entries=None)
        self.store = ArtifactStore(None)

    @staticmethod
    def scenario(body: bytes):
        from repro.scenario import Scenario

        return Scenario.from_json(json.loads(body))

    def expected_body(self, body: bytes) -> bytes:
        """The bytes a correct daemon answers to request ``body``."""
        from repro.service import run_scenario

        outcome = run_scenario(self.scenario(body), cache=self.cache,
                               store=self.store)
        return outcome.response_text().encode("utf-8")

    def names_scenario(self, body: bytes, response: bytes) -> bool:
        """Whether ``response`` answers ``body``'s scenario with exit 0."""
        try:
            answer = json.loads(response)
        except ValueError:
            return False
        scenario = self.scenario(body)
        return (isinstance(answer, dict)
                and answer.get("scenario_id") == scenario.scenario_id()
                and answer.get("kind") == scenario.kind
                and answer.get("exit_code") == 0)

    @staticmethod
    def fleet_payload(scenario: Dict[str, Any]) -> str:
        """Canonical in-process ``run_fleet_service`` payload."""
        from repro.scenario import Scenario
        from repro.service import run_fleet_service

        outcome = run_fleet_service(Scenario.from_json(scenario))
        return canonical(outcome.payload)
