"""Whole-run behavior: determinism, accounting, defense neutrality."""

from dataclasses import replace
from pathlib import Path

from sidelinksim.harq import DataBurst
from sidelinksim.metrics import event_line
from sidelinksim.scenario import load_scenario, parse_scenario
from sidelinksim.simulation import World, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def small_unicast(**over):
    raw = {
        "name": "small",
        "seed": 31,
        "duration_slots": 800,
        "ues": [
            {"id": 1, "position": [0, 0], "role": "gnss_visible"},
            {"id": 2, "position": [40, 0]},
        ],
        "traffic": [
            {"src": 1, "dst": 2, "period_slots": 100, "rri_ms": 100},
        ],
        "links": [{"initiator": 1, "responder": 2, "start_slot": 10}],
    }
    raw.update(over)
    return parse_scenario(raw)


def test_run_is_reproducible_to_the_byte():
    sc = load_scenario(SCENARIO_DIR / "baseline.yaml")
    r1, e1, _ = run_scenario(sc)
    r2, e2, _ = run_scenario(sc)
    assert r1.to_csv() == r2.to_csv()
    assert [event_line(e) for e in e1] == [event_line(e) for e in e2]


def test_seed_override_changes_outcomes():
    sc = small_unicast()
    r1, _, _ = run_scenario(sc)
    r2, _, _ = run_scenario(sc, seed=32)
    assert r2.seed == 32
    assert r1.to_csv() != r2.to_csv()


def test_clean_unicast_run_has_no_delivery_gap():
    report, _, world = run_scenario(small_unicast())
    t = report.totals
    assert t["slots_run"] == 800
    assert t["tb_sent"] > 0
    assert t["sender_delivered"] == t["receiver_delivered"] > 0
    assert t["harq_failures"] == 0
    assert t["attack_frames_sent"] == 0
    assert t["links_established"] == 2  # both endpoints log it
    # every finished TB is accounted exactly once
    assert len(world.tb_log) == t["sender_delivered"] + t["harq_failures"]


def test_tb_outcomes_cover_all_sent_tbs():
    _, _, world = run_scenario(small_unicast())
    states = {tb.state for tb in world.tb_log}
    assert states <= {"done", "failed"}
    assert all(tb.attempts >= 1 for tb in world.tb_log)
    assert all(tb.first_tx_slot >= 0 for tb in world.tb_log)


def test_events_sorted_by_slot_with_attacks_last():
    sc = load_scenario(SCENARIO_DIR / "harq_false_nack.yaml")
    _, events, _ = run_scenario(sc)
    keys = [(e["slot"], 0 if e["type"] != "attack" else 1) for e in events]
    assert keys == sorted(keys)
    assert any(e["type"] == "attack" for e in events)


def test_disabled_defense_sections_do_not_perturb_a_run():
    base = small_unicast()
    noop = small_unicast(defenses={
        "signed_ssb": {"enabled": False},
        "harq_anomaly_check": {"enabled": False},
        "replay_guard": {"enabled": False},
        "policy_enforcer": {"enabled": False},
        "privacy_randomizer": {"enabled": False, "mode": "weak"},
        "incident_log": {"enabled": False},
    })
    r1, e1, _ = run_scenario(base)
    r2, e2, _ = run_scenario(noop)
    assert r1.to_csv() == r2.to_csv()
    assert [event_line(e) for e in e1] == [event_line(e) for e in e2]


def test_privacy_refresh_rolls_identifiers_and_updates_links():
    sc = small_unicast(
        duration_slots=1200,
        defenses={"privacy_randomizer":
                  {"enabled": True, "timer_ms": 500, "mode": "weak"}},
    )
    report, events, world = run_scenario(sc)
    t = report.totals
    # two epochs; only the plain UE rolls (infrastructure roles keep stable ids)
    assert t["identifier_refreshes"] == 2
    owners = {}
    for observed, ue in world.identity_truth.items():
        owners.setdefault(ue, set()).add(observed)
    assert len(owners[2]) == 3  # original id plus one per epoch
    assert len(owners[1]) == 1
    # links survive the id change: no failures, and updates were signalled
    assert t["link_failures"] == 0
    assert any(e["type"] == "pc5" and e["kind"] == "identifier_update"
               for e in events)
    # delivery still clean across the id changes
    assert t["sender_delivered"] == t["receiver_delivered"]


def test_secure_mode_draws_unlinkable_ids():
    sc = small_unicast(
        duration_slots=1200,
        defenses={"privacy_randomizer":
                  {"enabled": True, "timer_ms": 500, "mode": "secure"}},
    )
    _, _, world = run_scenario(sc)
    ids = list(world.identity_truth)
    assert len(ids) == len(set(ids))
    successors = {a + 1 for a in ids}
    assert not (successors & set(ids))  # increment scheme never appears


def test_mixed_traffic_charges_broadcast_and_unicast():
    sc = small_unicast(
        ues=[
            {"id": 1, "position": [0, 0], "role": "gnss_visible"},
            {"id": 2, "position": [40, 0]},
            {"id": 3, "position": [0, 40]},
        ],
        traffic=[
            {"src": 1, "dst": 2, "period_slots": 100, "rri_ms": 100},
            {"src": 1, "dst": "broadcast", "period_slots": 100,
             "rri_ms": 100, "harq": False},
        ],
        links=[{"initiator": 1, "responder": 2, "start_slot": 10}],
    )
    report, _, _ = run_scenario(sc)
    t = report.totals
    # broadcast TBs land on every other UE without feedback
    assert t["receiver_delivered"] > t["sender_delivered"] > 0
    # unicast acks only; broadcast adds none
    assert t["feedback_sent"] == t["sender_delivered"]


def test_grant_realigns_past_occurrences_left_unused():
    # TBs every 250 slots on a 100-slot grant: occurrences pass unused
    # while nothing is pending, and the next TB rides the first one left.
    sc = parse_scenario({
        "name": "realign",
        "seed": 5,
        "duration_slots": 400,
        "ues": [{"id": 1, "position": [0, 0]}],
        "traffic": [{"src": 1, "dst": "broadcast", "period_slots": 250,
                     "rri_ms": 100, "harq": False}],
    })
    world = World(sc)
    agent = world.by_id[1]
    rt = agent.flows[0]
    sent = []

    def step(slot):
        sent.extend(tx.slot for tx in agent.act(slot) if isinstance(tx.payload, DataBurst))

    for slot in range(250):
        step(slot)
    grant = rt.grant
    assert len(sent) == 1
    stale, remaining = grant.next_slot, grant.remaining
    skipped = -(-(250 - stale) // grant.rri_slots)  # occurrences before slot 250
    assert skipped >= 1 and remaining > skipped
    realigned = stale + skipped * grant.rri_slots
    for slot in range(250, realigned + 1):
        step(slot)
    assert rt.grant is grant  # realigned, not reselected
    assert sent[1:] == [realigned]
    assert grant.remaining == remaining - skipped - 1
