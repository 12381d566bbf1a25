"""Seeded inputs for the four workloads.

Everything here is a pure function of the seed: the same seed gives the
same scenarios, in the same order.  The program under test only ever
sees the generated scenario JSON.
"""

import json
import random
from typing import Dict, List

#: (app, device) pairs whose tailoring succeeds, so every sweep request
#: is answerable; the other catalog pairs raise TailoringError.
SWEEP_PAIRS = (
    ("sec-gateway", "device-a"), ("sec-gateway", "device-arria-edge"),
    ("sec-gateway", "device-b"), ("sec-gateway", "device-c"),
    ("sec-gateway", "device-d"), ("sec-gateway", "device-gen5-400g"),
    ("sec-gateway", "device-stratix-nic"),
    ("sec-gateway", "device-vu125-legacy"), ("sec-gateway", "device-vu3p-nic"),
    ("layer4-lb", "device-a"), ("layer4-lb", "device-arria-edge"),
    ("layer4-lb", "device-b"), ("layer4-lb", "device-d"),
    ("layer4-lb", "device-gen5-400g"), ("layer4-lb", "device-stratix-nic"),
    ("layer4-lb", "device-vu125-legacy"),
    ("host-network", "device-a"), ("host-network", "device-arria-edge"),
    ("host-network", "device-b"), ("host-network", "device-c"),
    ("host-network", "device-d"), ("host-network", "device-gen5-400g"),
    ("host-network", "device-stratix-nic"),
    ("host-network", "device-vu125-legacy"),
    ("host-network", "device-vu3p-nic"),
    ("board-test", "device-a"), ("board-test", "device-arria-edge"),
    ("board-test", "device-b"), ("board-test", "device-d"),
    ("board-test", "device-gen5-400g"), ("board-test", "device-stratix-nic"),
    ("board-test", "device-vu125-legacy"),
)

#: Sweep pairs whose single-target build reports "incompatible" (the
#: tailored design does not fit the legacy part's budget).
_BUILD_MISFITS = (("sec-gateway", "device-vu125-legacy"),
                  ("layer4-lb", "device-vu125-legacy"),
                  ("host-network", "device-vu125-legacy"))

#: (role, device) pairs whose build succeeds, so a build response
#: always carries an artifact.
BUILD_PAIRS = tuple(pair for pair in SWEEP_PAIRS
                    if pair not in _BUILD_MISFITS)

#: Packet-size sets; every set has three sizes so every sweep request
#: has the same number of points.
SIZE_SETS = (
    (64, 256, 1024), (128, 512, 1500), (64, 512, 1500), (96, 384, 1024),
    (256, 768, 1500), (64, 128, 256),
)

HIT_SWEEPS = 36
HIT_BUILDS = 6
HIT_PACKETS = 20_000

MISS_PACKETS = 24_000         # plus the request index: every key is new
MISS_SIZES = 2
DES_PACKETS = 700             # DES costs ~50x more per packet
DES_EVERY = 8                 # about 1 in 8 misses forces the DES engine
BUILD_EVERY = 10              # about 1 in 10 misses is a cold build

FLEET_FLOWS = 1_000_000
FLEET_DEVICES = 1_024
DAY_EPOCHS = 288
DAY_DEVICES = 1_000


def _sweep(app: str, device: str, sizes, packets: int,
           engine: str = "auto") -> Dict:
    return {"version": 1, "kind": "sweep", "apps": [app],
            "devices": [device], "engine": engine,
            "workload": {"packet_sizes": list(sizes),
                         "packets_per_point": packets}}


def _build(role: str, device: str, software=None) -> Dict:
    scenario = {"version": 1, "kind": "build", "apps": [role],
                "devices": [device]}
    if software is not None:
        scenario["build"] = {"effort": 0, "software": list(software)}
    return scenario


def encode(scenario: Dict) -> bytes:
    return json.dumps(scenario, sort_keys=True).encode("utf-8")


def hit_working_set(seed: int) -> List[bytes]:
    """A few dozen distinct sweeps plus a few builds, all primed first."""
    rng = random.Random(f"serve-hit/{seed}")
    combos = [(app, device, sizes) for app, device in SWEEP_PAIRS
              for sizes in SIZE_SETS]
    chosen = rng.sample(combos, HIT_SWEEPS)
    bodies = [encode(_sweep(app, device, sizes, HIT_PACKETS))
              for app, device, sizes in chosen]
    bodies += [encode(_build(role, device))
               for role, device in rng.sample(BUILD_PAIRS, HIT_BUILDS)]
    return bodies


def hit_sequence(seed: int, working_set: int, count: int) -> List[int]:
    """Which working-set entry each request sends (uniform, seeded)."""
    rng = random.Random(f"serve-hit-seq/{seed}")
    return [rng.randrange(working_set) for _ in range(count)]


def miss_request(seed: int, index: int) -> bytes:
    """Request ``index`` of the miss stream: never seen before.

    Sweeps carry ``MISS_PACKETS + index`` packets per point, so no two
    requests share a cache key; builds add a per-request software
    component, so no two share an artifact key.
    """
    rng = random.Random(f"serve-miss/{seed}/{index}")
    if index % BUILD_EVERY == BUILD_EVERY - 1:
        role, device = rng.choice(BUILD_PAIRS)
        software = ("driver", "runtime-lib", "health-agent",
                    f"tenant-agent-{seed}-{index}")
        return encode(_build(role, device, software))
    app, device = rng.choice(SWEEP_PAIRS)
    sizes = sorted(rng.sample(sorted({s for group in SIZE_SETS
                                      for s in group}), MISS_SIZES))
    if index % DES_EVERY == DES_EVERY - 1:
        return encode(_sweep(app, device, sizes[:1], DES_PACKETS + index,
                             engine="des"))
    return encode(_sweep(app, device, sizes, MISS_PACKETS + index))


def fleet_scenario(seed: int) -> Dict:
    """The 1M-flow x 1,024-device snapshot, all three policies."""
    return {"version": 1, "kind": "fleet", "seed": seed,
            "tenancy": {"flow_count": FLEET_FLOWS,
                        "device_count": FLEET_DEVICES}}


def day_scenario(seed: int) -> Dict:
    """A 288-epoch day at 1M flows, flow-hash initial placement."""
    return {"version": 1, "kind": "fleet", "seed": seed,
            "tenancy": {"flow_count": FLEET_FLOWS,
                        "device_count": DAY_DEVICES},
            "epochs": {"epochs": DAY_EPOCHS, "policy": "flow-hash"}}


def miss_priming() -> List[bytes]:
    """Warm every memo the miss stream relies on, in daemon and pool.

    A 4-point DES sweep per pair builds the pair's chain in the daemon
    (cache keys) and in the pool processes that run its points (the
    first one also starts both pool processes); a build per pair warms
    the tailoring memo.  Packet counts stay below the stream's, so
    priming never stores a key the stream will ask for.
    """
    bodies = [encode(_sweep(app, device, (64, 256, 1024, 1500), 40,
                            engine="des"))
              for app, device in SWEEP_PAIRS]
    bodies += [encode(_build(role, device)) for role, device in BUILD_PAIRS]
    return bodies
