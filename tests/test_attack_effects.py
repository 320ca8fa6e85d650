"""Every registered attack kind has a measured effect, and the defense that
answers it removes that effect.

Each row is one small inline scenario, run with its defense off and then
on. Resource blocking has no defense, so its row compares the attacked
run with the same scenario without the attacker. A kind that no run can
drive to an effect has no row, and the coverage test fails.
"""

import math
from dataclasses import dataclass
from typing import Callable

import pytest

from sidelinksim.adversary import AttackKind, TrackerAgent
from sidelinksim.radio import child_rng
from sidelinksim.scenario import parse_scenario
from sidelinksim.simulation import World, run_scenario
from test_adversary import permutation_f1_baseline

GNSS = {"id": 0, "position": [0, 0], "role": "gnss_visible"}


def scenario(kind, duration, ues, at, window=None, params=None, **sections) -> dict:
    return {
        "name": kind, "seed": 1, "duration_slots": duration, "ues": ues, **sections,
        "attacks": [{"kind": kind, "window": list(window or (0, duration)),
                     "capability": {"position": list(at)}, "params": params or {}}],
    }


def sync_capture(kind):
    """An anchor and three followers 50 m out; the attacker beacons from
    14 m, +10 dB over the anchor, from slot 32 on."""
    anchor = {"id": 0, "position": [0, 0], "role": "gnode_b"}
    ring = [{"id": i, "position": p} for i, p in enumerate([[50, 0], [0, 50], [-50, 0]], 1)]
    return scenario(kind, 160, [anchor, *ring], at=(10, 10), window=(32, 160))


def harq_race(kind, **channel):
    """One unicast HARQ flow, 1 -> 2 every 20 slots; the spoofer sits
    between them and races the receiver's feedback from slot 200 on."""
    return scenario(
        kind, 600,
        [GNSS, {"id": 1, "position": [40, 0]}, {"id": 2, "position": [80, 0]}],
        at=(60, 10), window=(200, 600), channel=channel,
        pool={"period_list_ms": [20, 100, 1000]},
        traffic=[{"src": 1, "dst": 2, "period_slots": 20, "rri_ms": 20}],
        links=[{"initiator": 1, "responder": 2, "start_slot": 5}],
    )


def pc5_handshakes(kind, params=None, **defenses):
    """Two PC5 links set up at slots 20 and 30, overheard by the attacker."""
    ues = [GNSS, *({"id": i, "position": p}
                   for i, p in enumerate([[30, 0], [60, 0], [0, 30], [0, 60]], 1))]
    return scenario(kind, 150, ues, at=(20, 20), params=params, defenses=defenses,
                    links=[{"initiator": 1, "responder": 2, "start_slot": 20},
                           {"initiator": 3, "responder": 4, "start_slot": 30}])


def resource_squat():
    """Four broadcast flows on a 100-slot interval, starting once the
    attacker has claimed 75% of the grid at the 1000 ms interval."""
    ues = [GNSS, *({"id": i, "position": p}
                   for i, p in enumerate([[30, 0], [15, 26], [-15, 26], [-30, 0]], 1))]
    return scenario(
        "resource_blocking", 400, ues, at=(5, 5),
        params={"claim_fraction": 0.75, "rri_ms": 1000},
        traffic=[{"src": i, "dst": "broadcast", "period_slots": 100, "start_slot": 20 + i,
                  "rri_ms": 100, "harq": False} for i in range(1, 5)],
    )


def tracked_ring():
    """Six broadcasters on a 60 m circle around the tracker, with ids
    rotated every 100 slots in the weak (predictable) mode. With the
    randomizer off ids never change, so there is nothing to link."""
    n = 6
    ues = [{"id": i, "position": [round(60 * math.cos(2 * math.pi * i / n), 1),
                                  round(60 * math.sin(2 * math.pi * i / n), 1)]}
           for i in range(1, n + 1)]
    return scenario(
        "l2_tracking", 400, ues, at=(0, 0),
        pool={"period_list_ms": [40, 100, 1000]},
        traffic=[{"src": i, "dst": "broadcast", "period_slots": 40, "start_slot": 5 * i - 4,
                  "rri_ms": 40, "harq": False} for i in range(1, n + 1)],
        defenses={"privacy_randomizer": {"enabled": True, "timer_ms": 100.0, "mode": "weak"}},
    )


def within_two_sigma_of_chance(totals, world: World) -> bool:
    tracker = next(a for a in world.attackers if isinstance(a, TrackerAgent))
    truth = {observed: world.identity_truth[observed]
             for observed in tracker.traces if observed in world.identity_truth}
    mean, sigma = permutation_f1_baseline(tracker.link(), truth,
                                          child_rng(world.seed, "permbase"))
    return sigma > 0 and abs(totals["tracking_f1"] - mean) <= 2 * sigma


def every_spoof_flagged(t) -> bool:
    flagged = t["feedback_flagged"] - t["feedback_flagged_legit"]
    return t["feedback_spoofed"] > 0 and flagged == t["feedback_spoofed"]


def ack_gap(t) -> int:
    return t["sender_delivered"] - t["receiver_delivered"]


@dataclass(frozen=True)
class Row:
    scenario: dict
    # the defenses section that answers the attack; None where none exists
    defense: dict | None
    effect: Callable[[dict, World], bool]  # on the run with the defense off
    mitigated: Callable[[dict, World], bool]  # with it on, or vs. no attacker
    shown: tuple[str, ...]  # metrics printed when a check fails


SIGNED = {"signed_ssb": {"enabled": True}}
ANOMALY = {"harq_anomaly_check": {"enabled": True}}
GUARD = {"replay_guard": {"enabled": True}}
SECURE = {"privacy_randomizer": {"enabled": True, "timer_ms": 100.0, "mode": "secure"}}

ROWS = {
    AttackKind.SYNC_IMPERSONATION: Row(
        sync_capture("sync_impersonation"), SIGNED,
        lambda t, _: t["sync_victims"] > 0, lambda t, _: t["sync_victims"] == 0,
        ("sync_victims", "attack_frames_sent")),
    AttackKind.FALSE_SYNC_INJECTION: Row(
        sync_capture("false_sync_injection"), SIGNED,
        lambda t, _: t["sync_victims"] > 0, lambda t, _: t["sync_victims"] == 0,
        ("sync_victims", "attack_frames_sent")),
    AttackKind.RESOURCE_BLOCKING: Row(
        resource_squat(), None,
        lambda t, _: t["candidate_set_ratio"] <= 0.3,
        lambda t, _: t["candidate_set_ratio"] == 1.0 and t["collision_count"] == 0,
        ("candidate_set_ratio", "collision_count", "attack_frames_sent")),
    AttackKind.HARQ_SPOOF_ACK: Row(
        harq_race("harq_spoof_ack", tb_error_rate=0.3), ANOMALY,
        lambda t, _: ack_gap(t) > 0,
        lambda t, _: ack_gap(t) == 0 and every_spoof_flagged(t),
        ("sender_delivered", "receiver_delivered", "feedback_spoofed", "feedback_flagged")),
    AttackKind.HARQ_SPOOF_NACK: Row(
        harq_race("harq_spoof_nack"), ANOMALY,
        lambda t, _: t["harq_failures"] > 0,
        lambda t, _: t["harq_failures"] == 0 and every_spoof_flagged(t),
        ("harq_failures", "feedback_spoofed", "feedback_flagged")),
    AttackKind.PC5_FORGED_REJECT: Row(
        pc5_handshakes("pc5_forged_reject"), GUARD,
        lambda t, _: t["link_failures"] > 0,
        lambda t, _: t["link_failures"] == 0 and t["replay_rejects"] > 0,
        ("link_failures", "replay_rejects", "links_established")),
    # authentication runs only when a policy asks for it
    AttackKind.PC5_AUTH_DISRUPT: Row(
        pc5_handshakes("pc5_auth_disrupt", policy_enforcer={"enabled": True}), GUARD,
        lambda t, _: t["link_failures"] > 0 and t["links_established"] == 0,
        lambda t, _: t["link_failures"] == 0 and t["replay_rejects"] > 0,
        ("link_failures", "replay_rejects", "links_established")),
    AttackKind.PC5_REPLAY: Row(
        pc5_handshakes("pc5_replay", {"replay_delay_slots": 40}), GUARD,
        lambda t, _: t["duplicate_sessions"] > 0,
        lambda t, _: t["duplicate_sessions"] == 0 and t["replay_rejects"] > 0,
        ("duplicate_sessions", "replay_rejects")),
    AttackKind.L2_TRACKING: Row(
        tracked_ring(), SECURE,
        lambda t, _: t["tracking_f1"] >= 0.9, within_two_sigma_of_chance,
        ("tracking_f1", "tracking_precision", "tracking_recall")),
}


def test_every_registered_kind_has_a_row():
    assert set(ROWS) == set(AttackKind)


def _run(raw: dict):
    report, _, world = run_scenario(parse_scenario(raw))
    return report.totals, world


def counterpart(row: Row) -> dict:
    """The row's scenario with its defense on, or without the attacker."""
    if row.defense is None:
        return {**row.scenario, "attacks": []}
    return {**row.scenario, "defenses": {**row.scenario.get("defenses", {}), **row.defense}}


@pytest.mark.parametrize("kind", list(ROWS), ids=lambda k: k.value)
def test_attack_has_an_effect_that_its_defense_removes(kind):
    row = ROWS[kind]
    totals, world = _run(row.scenario)
    assert row.effect(totals, world), {m: totals[m] for m in row.shown}
    totals, world = _run(counterpart(row))
    assert row.mitigated(totals, world), {m: totals[m] for m in row.shown}
