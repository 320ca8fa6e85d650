"""Benchmark workloads: each one is a list of scenarios to set up and run.

Generators emit plain dicts, the same shape a scenario YAML file has,
so every generated input goes through `parse_scenario` and is validated
exactly like a user's file. Inputs depend only on the seed.
"""

from __future__ import annotations

import random
from pathlib import Path

# `--seed` value at which the catalog keeps each file's own seed and the
# golden digests apply
DEFAULT_SEED = 0

DENSE_UES = 100
DENSE_AREA_M = 300.0
DENSE_SLOTS = 1000

UNICAST_PAIRS = 12
UNICAST_AREA_M = 150.0
UNICAST_SLOTS = 2000


def catalog(root: Path, seed: int) -> list[tuple[str, Path, int | None]]:
    """Every scenario file under `scenarios/`; a non-default seed overrides theirs."""
    override = None if seed == DEFAULT_SEED else seed
    return [(path.stem, path, override)
            for path in sorted((root / "scenarios").glob("*.yaml"))]


def dense_broadcast(seed: int, num_ues: int = DENSE_UES,
                    duration_slots: int = DENSE_SLOTS) -> dict:
    """Many UEs in one square, broadcast SPS only: per-pair fan-out dominates."""
    rng = random.Random(f"dense_broadcast:{seed}")
    ues, traffic = [], []
    for ue_id in range(num_ues):
        ues.append({"id": ue_id, "position": [round(rng.uniform(0, DENSE_AREA_M), 1),
                                              round(rng.uniform(0, DENSE_AREA_M), 1)]})
        traffic.append({"src": ue_id, "dst": "broadcast", "period_slots": 100,
                        "start_slot": rng.randrange(100), "rri_ms": 100, "harq": False})
    return {
        "name": "dense_broadcast",
        "seed": seed,
        "duration_slots": duration_slots,
        "channel": {"shadowing_sigma_db": 2.0},
        "pool": {"num_subchannels": 10, "slots_per_selection_window": 20,
                 "period_list_ms": [100, 1000]},
        "sync": {},
        "ues": ues,
        "traffic": traffic,
    }


def unicast_harq(seed: int, pairs: int = UNICAST_PAIRS,
                 duration_slots: int = UNICAST_SLOTS) -> dict:
    """Unicast pairs with HARQ, PC5 links, a NACK spoofer and three defenses."""
    rng = random.Random(f"unicast_harq:{seed}")
    half = UNICAST_AREA_M / 2
    ues = [{"id": 0, "position": [0.0, 0.0], "role": "gnss_visible"}]
    traffic, links = [], []
    for p in range(pairs):
        a, b = 2 * p + 1, 2 * p + 2
        for ue_id in (a, b):
            ues.append({"id": ue_id, "position": [round(rng.uniform(-half, half), 1),
                                                  round(rng.uniform(-half, half), 1)]})
        for src, dst in ((a, b), (b, a)):
            traffic.append({"src": src, "dst": dst, "period_slots": 20,
                            "start_slot": rng.randrange(20), "rri_ms": 20})
        links.append({"initiator": a, "responder": b, "start_slot": rng.randrange(50)})
    return {
        "name": "unicast_harq",
        "seed": seed,
        "duration_slots": duration_slots,
        "channel": {"shadowing_sigma_db": 2.0, "tb_error_rate": 0.2},
        "pool": {"num_subchannels": 10, "slots_per_selection_window": 20,
                 "period_list_ms": [20, 100, 1000]},
        "sync": {},
        "ues": ues,
        "traffic": traffic,
        "links": links,
        "attacks": [{
            "kind": "harq_spoof_nack",
            "window": [200, duration_slots - 100],
            "capability": {"tx_power_dbm": 33.0,
                           "position": [round(rng.uniform(-half, half), 1),
                                        round(rng.uniform(-half, half), 1)]},
        }],
        "defenses": {
            "harq_anomaly_check": {"enabled": True, "power_tolerance_db": 3.0,
                                   "min_samples": 3},
            "replay_guard": {"enabled": True},
            "privacy_randomizer": {"enabled": True, "timer_ms": 500.0, "mode": "secure"},
            "incident_log": {"enabled": True},
        },
    }


def build(name: str, root: Path, seed: int) -> list[tuple[str, Path | dict, int | None]]:
    """(label, scenario file or raw dict, seed override for `World`) per scenario."""
    if name == "catalog":
        return catalog(root, seed)
    if name == "dense_broadcast":
        return [(name, dense_broadcast(seed), None)]
    if name == "unicast_harq":
        return [(name, unicast_harq(seed), None)]
    raise KeyError(name)


WORKLOADS = ("catalog", "dense_broadcast", "unicast_harq")
