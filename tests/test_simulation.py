"""Whole-run behavior: determinism, accounting, defense neutrality."""

import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sidelinksim import resources, simulation
from sidelinksim.bits import BitString
from sidelinksim.frames import CastType, Sci1A, Sci2A, SlssIdentity, fra_decode
from sidelinksim.harq import FEEDBACK_DELAY_SLOTS, DataBurst
from sidelinksim.metrics import event_line
from sidelinksim.pc5 import BROADCAST_L2
from sidelinksim.radio import MAX_SHADOWING_SIGMA_DB, MAX_TX_POWER_DBM, Transmission
from sidelinksim.resources import (
    RSRP_EXCLUSION_THRESHOLD_DBM,
    SENSING_WINDOW_SLOTS,
    ControlBurst,
    claim_shape,
    sense,
)
from sidelinksim.scenario import ATTACKER_ID_BASE, load_scenario, parse_scenario
from sidelinksim.simulation import UeAgent, World, run_scenario
from sidelinksim.sync import SyncCandidate, SyncSourceKind
from test_radio import reference_rsrp_at
from test_wake import moving_ues, workloads

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
        sent.extend(slot for tx in agent.act(slot) if isinstance(tx.payload, DataBurst))

    for slot in range(250):
        step(slot)
    grant = rt.grant
    assert len(sent) == 1
    stale, remaining = grant.next_slot, grant.remaining
    rri = rt.flow.rri_ms  # 1 ms slots
    skipped = -(-(250 - stale) // rri)  # occurrences before slot 250
    assert skipped >= 1 and remaining > skipped
    realigned = stale + skipped * rri
    for slot in range(250, realigned + 1):
        step(slot)
    assert rt.grant is grant  # realigned, not reselected
    assert sent[1:] == [realigned]
    assert grant.remaining == remaining - skipped - 1


def test_each_tbs_control_stages_describe_that_tb(monkeypatch):
    # Receivers read the MAC ids, not the SCI 2-A ones, so control bits
    # kept from another TB, grant or identifier would pass every golden
    # digest; they must match the world as it stands at emission.
    world = World(parse_scenario(workloads.unicast_harq(0)))
    pool = world.sc.pool
    emit = simulation.UeAgent._emit_tb
    emitted = []

    def checked(agent, rt, slot, out):
        emit(agent, rt, slot, out)
        tx, proc = out[-1], rt.process
        burst = tx.payload
        sci1 = Sci1A.decode(pool, burst.sci1_bits)
        start, length = fra_decode(pool.num_subchannels, sci1.frequency_resource)
        assert (start, length) == tx.subchannel_range
        assert sci1.rri_index == pool.period_list_ms.index(rt.flow.rri_ms)
        assert (burst.mac_src_l2, burst.mac_dst_l2) == (agent.endpoint.l2_id,
                                                        world.l2_of(rt.flow.dst))
        sci2 = Sci2A.decode(burst.sci2_bits)
        assert (sci2.source_id, sci2.dest_id) == (burst.mac_src_l2 & 0xFF,
                                                  burst.mac_dst_l2 & 0xFFFF)
        assert (sci2.harq_process_id, sci2.ndi, sci2.rv) == (proc.process_id, proc.ndi,
                                                             proc.rv)
        emitted.append((burst.mac_src_l2, sci2.rv))

    monkeypatch.setattr(simulation.UeAgent, "_emit_tb", checked)
    report = world.run()
    assert report.totals["identifier_refreshes"] == 72
    assert report.totals["retransmissions"] > 0
    assert len({src for src, _ in emitted}) > len(world.agents)  # refreshed ids sent
    assert len({rv for _, rv in emitted}) > 1


# -- per-receiver work done once ------------------------------------------


def lone_ue_world(**over):
    raw = {"name": "lone", "seed": 3, "duration_slots": 10,
           "ues": [{"id": 1, "position": [0, 0]}]}
    raw.update(over)
    return World(parse_scenario(raw))


def test_equal_sci_bits_decode_once_to_one_shared_claim(monkeypatch):
    world = World(small_unicast())
    a, b = world.agents
    pool = world.sc.pool
    decoded = []
    decode = Sci1A.decode.__func__
    monkeypatch.setattr(Sci1A, "decode", classmethod(
        lambda cls, pool, bits: decoded.append(bits) or decode(cls, pool, bits)))
    sci = Sci1A(priority=1, frequency_resource=0, time_resource=0, rri_index=0, mcs=9)

    def announce(sender, bits):
        return Transmission(sender.spec.id, sender.spec.tx_power_dbm, ControlBurst(bits))

    # equal bits, another BitString
    world._deliver_and_dispatch([announce(a, sci.encode(pool)), announce(b, sci.encode(pool))], 5)
    wrong_length = BitString(b"\x00", 8)
    world._deliver_and_dispatch([announce(a, wrong_length),
                                 announce(b, BitString(b"\x00", 8))], 6)
    log = world.sensing_log
    shape = claim_shape(sci, pool)
    # the malformed payload decodes to no shape, so it logs nothing
    assert [(slot, claim, kept(row, world.positions)) for slot, claim, row in log] == [
        (5, shape, [2]), (5, shape, [1])]
    assert log[0][1] is log[1][1]
    assert len(decoded) == 2
    assert world.sci1a_cache == {astuple(sci.encode(pool)): shape, astuple(wrong_length): None}


@pytest.mark.parametrize("pool, fields", [
    ({}, {"frequency_resource": 15}),
    ({"period_list_ms": [100, 500, 1000]}, {"rri_index": 3}),
    ({}, {"time_resource": 7}),
], ids=["fra-past-the-subchannels", "rri-index-past-the-periods", "time-gap"])
def test_a_claim_the_pool_cannot_carry_is_sensed_as_nothing(pool, fields):
    """A right-length SCI 1-A whose frequency value or period index the
    pool has no resource for, or that claims a time gap, decodes to no
    shape: its memo entry is None, nobody logs it, and the slot completes."""
    world = World(small_unicast(pool=pool))
    sender = world.agents[0]
    sci = Sci1A(**{"priority": 1, "frequency_resource": 0, "time_resource": 0,
                   "rri_index": 0, "mcs": 9, **fields})
    bits = sci.encode(world.sc.pool)
    assert bits.bit_length == sum(Sci1A.field_widths(world.sc.pool).values())
    with pytest.raises(ValueError):
        claim_shape(sci, world.sc.pool)
    world._deliver_and_dispatch(
        [Transmission(sender.spec.id, sender.spec.tx_power_dbm, ControlBurst(bits))], 5)
    assert world.sci1a_cache == {astuple(bits): None}
    assert world.sensing_log == [] and world.sensing_reach == 0


@pytest.mark.parametrize("make", [
    lambda: parse_scenario(workloads.unicast_harq(2, pairs=3, duration_slots=600)),
    lambda: load_scenario(SCENARIO_DIR / "resource_blocking.yaml"),
    moving_ues,
], ids=["unicast_harq", "resource_blocking", "moving"])
def test_sensing_reach_is_the_largest_cached_claim_lifetime(make, monkeypatch):
    world = World(make())
    pool = world.sc.pool
    calls = []

    def checked_sense(received, pool_, window_start):
        lifetimes = [claim_shape(Sci1A.decode(pool, BitString(*key)), pool).lifetime
                     for key, shape in world.sci1a_cache.items() if shape is not None]
        assert world.sensing_reach == max(lifetimes, default=0)
        calls.append(window_start)
        return sense(received, pool_, window_start)

    monkeypatch.setattr(simulation, "sense", checked_sense)
    world.run()
    assert len(calls) > 5 and world.sensing_reach > 0


def test_reselection_decodes_no_shape_and_encodes_each_grant_claim_once(monkeypatch):
    """Dispatch decodes each distinct claim into a shape once per world,
    so a reselection decodes none; and each distinct grant claim is
    encoded once, however many grants repeat it."""
    world = World(parse_scenario(workloads.unicast_harq(2, pairs=3)))
    reselecting = []
    shapes = {"dispatch": 0, "reselect": 0}
    shape = resources.claim_shape

    def counted(sci, pool):
        shapes["reselect" if reselecting else "dispatch"] += 1
        return shape(sci, pool)

    reselect = UeAgent._reselect

    def flagged(self, rt, slot):
        reselecting.append(slot)
        try:
            reselect(self, rt, slot)
        finally:
            reselecting.pop()

    encoded = []
    encode = Sci1A.encode
    monkeypatch.setattr(resources, "claim_shape", counted)
    monkeypatch.setattr(UeAgent, "_reselect", flagged)
    monkeypatch.setattr(Sci1A, "encode", lambda sci, pool: encoded.append(sci) or encode(sci, pool))
    world.run()
    pool = world.sc.pool
    assert None not in world.sci1a_cache.values()
    assert shapes == {"dispatch": len(world.sci1a_cache), "reselect": 0}
    for key, got in world.sci1a_cache.items():
        assert got == shape(Sci1A.decode(pool, BitString(*key)), pool)
    selections = world.metrics.totals["selections"]
    assert len(encoded) == len(world.sci1a_bits) < selections
    for (start, length, rri_ms, priority), bits in world.sci1a_bits.items():
        assert bits == resources.announce(world.sc.pool, start, length, rri_ms,
                                          priority).encode(world.sc.pool)


def test_equal_sci2_bits_decode_once_to_one_shared_header(monkeypatch):
    world = World(small_unicast())
    a, b = world.agents
    decoded = []
    decode = Sci2A.decode.__func__
    monkeypatch.setattr(Sci2A, "decode", classmethod(
        lambda cls, bits: decoded.append(bits) or decode(cls, bits)))
    sci2 = Sci2A(harq_process_id=3, ndi=1, rv=0, source_id=7, dest_id=9,
                 harq_enabled=True, cast_type=CastType.UNICAST)

    def burst(agent, bits, tb):
        return DataBurst(None, bits, mac_src_l2=7, mac_dst_l2=agent.endpoint.l2_id,
                         tb_id=tb, size_bytes=300)

    assert a._receive_data(burst(a, sci2.encode(), 1), 5)
    assert b._receive_data(burst(b, sci2.encode(), 2), 5)  # equal bits, another BitString
    for agent in (a, b):
        [fb] = agent.outbox[5 + FEEDBACK_DELAY_SLOTS]
        assert (fb.harq_process_id, fb.src_l2, fb.dst_l2) == (3, agent.endpoint.l2_id, 7)
    wrong_length = BitString(b"\x00", 8)
    assert a._receive_data(burst(a, wrong_length, 3), 6)
    assert b._receive_data(burst(b, BitString(b"\x00", 8), 4), 6)
    assert 6 + FEEDBACK_DELAY_SLOTS not in a.outbox  # no header, no feedback
    assert len(decoded) == 2
    assert world.sci2a_cache == {astuple(sci2.encode()): sci2, astuple(wrong_length): None}


def test_data_for_another_layer2_id_queues_no_feedback():
    """`_receive_data` answers only data sent to this UE's own layer-2 id.
    The two bursts below differ only in the MAC destination: the SCI 2-A
    carries the low 16 bits of `a`'s id either way, so only the address
    check tells the overheard one apart."""
    world = World(small_unicast())
    a, b = world.agents
    mine, other = a.endpoint.l2_id, a.endpoint.l2_id ^ 0x800000
    sci2 = Sci2A.for_tb(3, 0, 0, b.endpoint.l2_id, mine, True, CastType.UNICAST)

    def heard(dst, tb):
        burst = DataBurst(None, sci2.encode(), mac_src_l2=b.endpoint.l2_id, mac_dst_l2=dst,
                          tb_id=tb, size_bytes=300)
        return (Transmission(b.spec.id, 23.0, burst), -60.0)

    a.receive([heard(other, 1)], 5)
    assert a.outbox == {} and world.metrics.totals["feedback_sent"] == 0
    a.receive([heard(mine, 2)], 6)
    [fb] = a.outbox[6 + FEEDBACK_DELAY_SLOTS]
    assert (fb.src_l2, fb.dst_l2) == (mine, b.endpoint.l2_id)


def kept(row, nodes) -> list[int]:
    """The nodes, in `nodes` order, that kept a `deliver` row's level."""
    return [uid for uid in nodes if row.get(uid) is not None]


def ledger_count(world: World) -> int:
    """`receiver_delivered` as the delivery ledger holds it: one bit per (TB, UE)."""
    return sum(mask.bit_count() for mask in world.delivered.values())


def test_a_re_emitted_broadcast_tb_counts_once_per_ue():
    # the lossless broadcast tally reads rows, not receptions: a verbatim
    # re-emission in the same slot, and again in a later one, is heard by
    # the same UEs, and each still counts the TB once. An attacker in the
    # row has no bit, and on a lossy channel each UE's own reception of a
    # TB it already has counts nothing
    def tally(channel, attacks=()):
        world = World(parse_scenario({
            "name": "tally", "seed": 1, "duration_slots": 10, "channel": channel,
            "ues": [{"id": i, "position": [30 * i, 0]} for i in range(1, 4)],
            "attacks": list(attacks)}))
        sender = world.agents[0]
        sci = Sci1A(priority=3, frequency_resource=0, time_resource=0, rri_index=0, mcs=9)
        sci2 = Sci2A.for_tb(0, 0, 0, sender.endpoint.l2_id, BROADCAST_L2, False,
                            CastType.BROADCAST)
        burst = DataBurst(sci.encode(world.sc.pool), sci2.encode(),
                          mac_src_l2=sender.endpoint.l2_id, mac_dst_l2=BROADCAST_L2,
                          tb_id=7, size_bytes=300)
        tx = Transmission(1, 23.0, burst)
        world._deliver_and_dispatch([tx, tx], 5)
        counts = [world.metrics.totals["receiver_delivered"]]
        world._deliver_and_dispatch([tx], 6)
        counts.append(world.metrics.totals["receiver_delivered"])
        assert world.delivered == {7: 0b110} and ledger_count(world) == 2
        return world, counts

    world, counts = tally({})
    assert [kept(row, world.positions) for _, _, row in world.sensing_log] == [[2, 3]] * 3
    assert counts == [2, 2]
    spy = {"kind": "harq_spoof_nack", "window": [0, 10], "capability": {"position": [45, 5]}}
    world, counts = tally({}, [spy])
    assert ([kept(row, world.positions) for _, _, row in world.sensing_log]
            == [[2, 3, ATTACKER_ID_BASE]] * 3)
    assert counts == [2, 2]
    world, counts = tally({"tb_error_rate": 1e-9})
    assert counts == [2, 2]


LEDGER_RUNS = {
    **{path.stem: lambda path=path: load_scenario(path) for path in SCENARIO_DIR.glob("*.yaml")},
    "dense_broadcast-1": lambda: parse_scenario(workloads.dense_broadcast(1)),
    "unicast_harq-1": lambda: parse_scenario(workloads.unicast_harq(1)),
}


@pytest.mark.parametrize("name", sorted(LEDGER_RUNS))
def test_the_delivery_ledger_holds_every_receiver_delivered_count(name):
    world = World(LEDGER_RUNS[name]())
    report = world.run()
    assert ledger_count(world) == report.totals["receiver_delivered"]
    assert all(0 < mask < 1 << len(world.agents) for mask in world.delivered.values())


def test_a_run_refuses_a_delivery_counted_twice(monkeypatch):
    receive_data = UeAgent._receive_data
    monkeypatch.setattr(UeAgent, "_receive_data",
                        lambda self, burst, slot: 2 * receive_data(self, burst, slot))
    with pytest.raises(AssertionError, match="delivery ledger holds"):
        World(load_scenario(SCENARIO_DIR / "baseline.yaml")).run()


def test_a_blind_tb_has_one_sent_outcome():
    # baseline has HARQ flows and one flow without feedback
    report, _, world = run_scenario(load_scenario(SCENARIO_DIR / "baseline.yaml"))
    states = Counter(tb.state for tb in world.tb_log)
    assert set(states) == {"done", "sent"}
    assert sum(states.values()) == report.totals["tb_sent"]
    assert len({tb.tb_id for tb in world.tb_log}) == len(world.tb_log)
    assert all(tb.attempts == 1 and tb.spoof_candidates == 0
               for tb in world.tb_log if tb.state == "sent")


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_a_run_refuses_a_tb_without_exactly_one_outcome(monkeypatch, change):
    finalize = World._finalize

    def finalize_changed(world):
        if change == "drop":
            world.tb_log.pop()
        else:
            world.tb_log.append(world.tb_log[-1])
        finalize(world)

    monkeypatch.setattr(World, "_finalize", finalize_changed)
    with pytest.raises(AssertionError, match="TBs sent"):
        World(load_scenario(SCENARIO_DIR / "baseline.yaml")).run()


def test_cached_path_loss_follows_moving_nodes(monkeypatch):
    # no shadowing, so every level is the log-distance value at the
    # positions of its own slot; a path-loss row kept from an earlier
    # slot would give the old distance
    world = World(parse_scenario({
        "name": "moving", "seed": 2, "duration_slots": 300,
        "ues": [{"id": 1, "position": [-300, 0], "velocity": [400, 50],
                 "role": "gnss_visible"},
                {"id": 2, "position": [0, 0]}, {"id": 3, "position": [90, -60]}],
        "traffic": [{"src": 1, "dst": "broadcast", "period_slots": 20, "harq": False},
                    {"src": 2, "dst": 3, "period_slots": 25, "start_slot": 5}],
    }))
    heard = []
    deliver = simulation.deliver

    def recording(transmissions, positions, *args):
        recs, collisions, rows = deliver(transmissions, positions, *args)
        heard.extend((dict(positions), uid, tx, rsrp) for uid, rs in recs.items()
                     for tx, rsrp in rs)
        heard.extend((dict(positions), uid, transmissions[k], rsrp) for k, row in rows.items()
                     for uid in positions if (rsrp := row.get(uid)) is not None)
        return recs, collisions, rows

    monkeypatch.setattr(simulation, "deliver", recording)
    world.run()
    assert len({positions[1] for positions, _, _, _ in heard}) > 10
    for positions, uid, tx, rsrp in heard:
        (sx, sy), (rx, ry) = positions[tx.sender_id], positions[uid]
        assert rsrp == reference_rsrp_at(tx.tx_power_dbm, math.hypot(rx - sx, ry - sy))


def lossy_dense_broadcast():
    """Broadcast with collisions, TB errors and shadowing."""
    raw = workloads.dense_broadcast(3, num_ues=30, duration_slots=400)
    raw["channel"]["tb_error_rate"] = 0.3
    return parse_scenario(raw)


# sha256 of metrics.csv plus events.jsonl, recorded while every data
# reception went through `_receive_data`, which bumped
# `receiver_delivered` once per delivered TB
BROADCAST_DIGESTS = {
    "moving": "86a56aa781e344af2cd025b06ba55b79434833618d84721dafdab268c141f87d",
    "lossy_dense_broadcast": "739d7f971351f592e6697da9992b7b270eaa2d65e563181e4db88a57a73a7953",
}


@pytest.mark.parametrize("name, build, collides", [
    ("moving", moving_ues, False),
    ("lossy_dense_broadcast", lossy_dense_broadcast, True),
])
def test_lossy_broadcast_tally_matches_recorded_digests(name, build, collides):
    # no catalog file has lossy broadcast, and the wake oracle compares
    # two runs of the same `receive`, so neither would catch a wrong tally
    world = World(build())
    report = world.run()
    assert world.sc.channel.tb_error_rate > 0 and report.totals["receiver_delivered"] > 0
    assert (report.totals["collision_count"] > 0) == collides
    text = report.to_csv() + "".join(event_line(e) + "\n" for e in world.events)
    assert _sha(text) == BROADCAST_DIGESTS[name]


def test_full_pool_blockers_at_the_level_bounds_finish():
    """Selection backs off 3 dB at a time up to the strongest claim it
    must drop. Three blockers claim every cell at the largest power a
    scenario may set, under the largest shadowing, and the run ends."""
    raw = yaml.safe_load((SCENARIO_DIR / "resource_blocking.yaml").read_text())
    raw["channel"]["shadowing_sigma_db"] = MAX_SHADOWING_SIGMA_DB
    raw["attacks"] = [{"kind": "resource_blocking", "window": [500, 2500],
                       "capability": {"tx_power_dbm": MAX_TX_POWER_DBM, "position": [x, 5]},
                       "params": {"claim_fraction": 1.0, "rri_ms": 1000}}
                      for x in (-20, 5, 20)]
    world = World(parse_scenario(raw))
    start = time.perf_counter()
    world.run()
    assert time.perf_counter() - start < 5.0
    thresholds = [r.selection.threshold_dbm for r in world.selection_log]
    assert max(thresholds) > RSRP_EXCLUSION_THRESHOLD_DBM  # selections backed off


def test_sensing_prefix_prune_equals_the_filter():
    world = lone_ue_world()
    window = SENSING_WINDOW_SLOTS
    rng = random.Random(11)
    for _ in range(300):
        slots = sorted(rng.randrange(40) for _ in range(rng.randint(0, 25)))
        entries = [(s, None, {1: -70.0 - i}) for i, s in enumerate(slots)]
        cut = rng.choice(slots) + rng.choice((-1, 0, 0, 1)) if slots else 5
        # the cut is the sensing window's or the reach's, whichever is later
        if rng.random() < 0.5:
            slot, world.sensing_reach = cut + window, window + 1 + rng.randrange(50)
        else:
            world.sensing_reach = rng.randint(0, 60)
            slot = cut - 1 + world.sensing_reach
        world.sensing_log = list(entries)
        assert world.live_sensing(slot) == [e for e in entries if e[0] >= cut]
        assert world.sensing_log == [e for e in entries if e[0] >= cut]


def test_sensing_window_drops_claims_sense_would_still_project():
    # a 1000 ms claim stays live for two periods, longer than the
    # 1100-slot sensing window: the log cut, not sense, drops it
    world = lone_ue_world()
    pool = world.sc.pool
    sci = Sci1A(priority=1, frequency_resource=0, time_resource=0,
                rri_index=pool.period_list_ms.index(1000), mcs=9)
    shape = claim_shape(sci, pool)
    world.sensing_reach = shape.lifetime
    slot = 100 + SENSING_WINDOW_SLOTS + 1
    assert slot + 1 - world.sensing_reach < 100
    assert sense([(shape, -60.0, 100)], pool, slot + 1).reservations
    world.sensing_log = [(100, shape, {1: -60.0})]
    assert world.live_sensing(slot) == []


@st.composite
def sensing_worlds(draw):
    """2-8 UEs in a 200 m square, some moving, with broadcast and unicast
    flows of two subchannels on a two-subchannel pool, so selections
    overlap and collide; a lossless or lossy channel; a resource_blocking
    attacker. The UEs' claims of at most 100 ms reach 200 slots, so the
    reach cuts the log until the attacker's first 1000 ms claim is heard;
    that claim reaches 2000 slots, past the 1100-slot sensing window, so
    from then on the window cuts it."""
    n = draw(st.integers(2, 8))
    coord = st.integers(-100, 100)
    ues = [{"id": i, "position": [draw(coord), draw(coord)],
            "velocity": [draw(st.sampled_from((0, 0, 0, 30, -45))), 0]}
           for i in range(1, n + 1)]
    traffic = []
    for src in range(1, n + 1):
        for _ in range(draw(st.integers(1 if src == 1 else 0, 2))):
            dst = draw(st.sampled_from(["broadcast"] + [j for j in range(1, n + 1) if j != src]))
            traffic.append({"src": src, "dst": dst, "size_bytes": 600,
                            "period_slots": draw(st.sampled_from((20, 50, 100))),
                            "rri_ms": draw(st.sampled_from((20, 50, 100))),
                            "start_slot": draw(st.integers(0, 40)),
                            "harq": dst != "broadcast" and draw(st.booleans())})
    raw = {"name": "sensing", "seed": draw(st.integers(0, 999)), "duration_slots": 1400,
           "channel": {"shadowing_sigma_db": draw(st.sampled_from((0.0, 2.0))),
                       "tb_error_rate": draw(st.sampled_from((0.0, 0.0, 0.3)))},
           "pool": {"num_subchannels": 2, "slots_per_selection_window": 5,
                    "period_list_ms": [20, 50, 100, 1000]},
           "ues": ues, "traffic": traffic}
    start = draw(st.integers(0, 150))
    raw["attacks"] = [{"kind": "resource_blocking", "window": [start, start + 150],
                       "capability": {"position": [draw(coord), draw(coord)]},
                       "params": {"claim_fraction": draw(st.sampled_from((0.25, 0.5))),
                                  "rri_ms": 1000}}]
    return parse_scenario(raw)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(sc=sensing_worlds())
def test_entries_from_the_log_equal_the_per_reception_lists(sc):
    """At every reselection, `sense` gets the UE's own column of the
    log's live suffix: in order, every SCI-bearing reception the UE kept
    (`deliver` to every node, on a copy of the channel generator) whose
    SCI 1-A decodes into a claim shape, cut at the sensing window and the
    reach. Each reselection and each slot on air cut the one log, so they
    cut every UE's reference list: an entry cut then holds no live
    occurrence in a later window either."""
    world = World(sc)
    pool = sc.pool
    kept = {agent.spec.id: [] for agent in world.agents}

    def shape(bits):
        try:
            return claim_shape(Sci1A.decode(pool, bits), pool)
        except ValueError:
            return None

    windowed = []  # entries the sensing window cut and the reach would have kept

    def cut(slot):
        reach = slot + 1 - world.sensing_reach
        bound = max(slot - SENSING_WINDOW_SLOTS, reach)
        for entries in kept.values():
            windowed.extend(e for e in entries if reach <= e[2] < bound)
            entries[:] = [e for e in entries if e[2] >= bound]

    dispatch = World._deliver_and_dispatch

    def reference_dispatch(self, transmissions, slot):
        cut(slot)
        twin = random.Random()
        twin.setstate(self.channel_rng.getstate())
        recs, _, _ = simulation.deliver(transmissions, self.positions, sc.channel, twin,
                                        self.path_loss)
        for uid, rs in recs.items():
            kept.get(uid, []).extend(
                (claim, rsrp, slot) for tx, rsrp in rs
                if isinstance(tx.payload, (DataBurst, ControlBurst))
                and (claim := shape(tx.payload.sci1_bits)) is not None)
        dispatch(self, transmissions, slot)

    handed = []
    reselect = UeAgent._reselect
    checked = []

    def checked_reselect(self, rt, slot):
        cut(slot)
        reselect(self, rt, slot)
        assert handed[-1] == kept[self.spec.id]
        checked.append(len(handed[-1]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "sense", lambda received, *args: (
            handed.append(received) or sense(received, *args)))
        mp.setattr(World, "_deliver_and_dispatch", reference_dispatch)
        mp.setattr(UeAgent, "_reselect", checked_reselect)
        world.run()
    assert checked and windowed
    assert ledger_count(world) == world.metrics.totals["receiver_delivered"]


def _sync_trace(seed, min_hyst_db, rank_every_slot):
    """Drive one UE's sync step on a random stream of heard S-SSBs."""
    world = lone_ue_world(sync={"min_hyst_db": min_hyst_db})
    agent = world.agents[0]
    rng = random.Random(seed)
    ids = [(0, True), (7, True), (9, False), (340, True), (400, False), (401, False)]
    trace = []
    for slot in range(400):
        quiet = (slot // 50) % 3 == 2  # long silences let entries age out
        for _ in range(0 if quiet else rng.choice((0, 0, 1, 2))):
            sid, cov = rng.choice(ids)
            agent.buffer.note(SyncCandidate(SlssIdentity(sid, cov), rng.uniform(-112, -60),
                                            slot, sid))
        if rank_every_slot:
            agent._ranked_at = None
        agent._sync_step(slot, [])
        st = agent.state
        trace.append((st.source, st.reference, st.own_slss))
    return trace, world.events


@pytest.mark.parametrize("min_hyst_db", [0.0, 6.0])
def test_ranking_only_on_change_matches_ranking_every_slot(monkeypatch, min_hyst_db):
    # with an entry margin, the first lock can skip a stronger-tier
    # candidate that the next ranking switches to, buffer unchanged
    calls = []
    select = simulation.select_sync_ref
    monkeypatch.setattr(simulation, "select_sync_ref",
                        lambda *a: calls.append(1) or select(*a))
    kinds = set()
    for seed in range(12):
        every, every_events = _sync_trace(seed, min_hyst_db, True)
        ranked_every = len(calls)
        on_change, events = _sync_trace(seed, min_hyst_db, False)
        assert on_change == every
        assert events == every_events
        assert len(calls) - ranked_every < ranked_every / 2
        kinds |= {e["type"] for e in events}
        calls.clear()
    assert kinds == {"sync_switch", "sync_lapse"}
    assert any(src == SyncSourceKind.SYNC_REF_UE for src, *_ in on_change)


# the catalog and both generators, short
SHORT_RUNS = {
    **{f"catalog:{p.stem}": (lambda p=p: load_scenario(p))
       for p in sorted(SCENARIO_DIR.glob("*.yaml"))},
    **{f"dense_broadcast:{seed}": (lambda seed=seed: parse_scenario(
        workloads.dense_broadcast(seed, num_ues=16, duration_slots=300))) for seed in (0, 1)},
    **{f"unicast_harq:{seed}": (lambda seed=seed: parse_scenario(
        workloads.unicast_harq(seed, pairs=3, duration_slots=700))) for seed in (0, 1)},
}


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_a_selecting_ue_holds_a_reference_exactly_when_off_its_internal_clock(name):
    """`SyncState.reference` is set iff the source is a SyncRef UE: a lapse
    to the internal clock drops the reference and says so in `source`."""
    _, _, world = run_scenario(SHORT_RUNS[name]())
    states = [agent.state for agent in world.agents
              if agent.state.source in simulation.SELECTING]
    assert states
    for state in states:
        assert (state.reference is None) == (state.source is SyncSourceKind.INTERNAL_CLOCK)


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_every_header_a_run_encodes_is_filed_as_its_decode(name):
    """`_emit_tb` files each SCI 2-A header it encodes in `sci2a_cache`, so
    no receiver decodes it: the filed header is what decoding gives."""
    _, _, world = run_scenario(SHORT_RUNS[name]())
    for header, bits in world.sci2a_bits.items():
        decoded = Sci2A.decode(bits)
        assert Sci2A.for_tb(*header) == decoded
        assert world.sci2a_cache[astuple(bits)] == decoded


# -- feedback closure across many flows -------------------------------------


def multi_flow_harq(slot_offset):
    """UE 1 sends three unicast HARQ flows, two of them starting in slot
    10; UE 4 sends eighteen, so it holds two flows on each of HARQ
    process ids 0 and 1. Channel errors cause NACKs, and a NACK spoofer
    with one slot of timing jitter races the feedback from slot 100 on,
    `slot_offset` slots past the feedback slot."""
    ues = [{"id": 0, "position": [0, 0], "role": "gnss_visible"},
           *({"id": i, "position": p}
             for i, p in enumerate([[40, 0], [80, 0], [40, 40], [0, 40]], 1))]
    flows = [
        {"src": 1, "dst": 2, "period_slots": 20, "start_slot": 10, "rri_ms": 20},
        {"src": 1, "dst": 2, "period_slots": 20, "start_slot": 10, "rri_ms": 20},
        {"src": 1, "dst": 3, "period_slots": 30, "start_slot": 15, "rri_ms": 20},
        *({"src": 4, "dst": 2 + i % 2, "period_slots": 40, "start_slot": 5 + i, "rri_ms": 20}
          for i in range(18)),
    ]
    return parse_scenario({
        "name": "multi_flow_harq", "seed": 5, "duration_slots": 400, "ues": ues,
        "channel": {"tb_error_rate": 0.1},
        "pool": {"period_list_ms": [20, 100, 1000]},
        "traffic": flows,
        "attacks": [{"kind": "harq_spoof_nack", "window": [100, 400],
                     "capability": {"position": [40, 20], "timing_precision_slots": 1},
                     "params": {"slot_offset": slot_offset}}],
        "defenses": {"harq_anomaly_check": {"enabled": True},
                     "incident_log": {"enabled": True}},
    })


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# slot_offset -> sha256 of (metrics.csv, events, tb_log rows), recorded
# when feedback closure walked a list of pending TBs in emission order
MULTI_FLOW_DIGESTS = {
    -1: ("d2afeb497e8dd9b86f0ab2fe2898aa8ec641e909d1f4363b4e696150f996ad20",
         "fc82a1a33d09f2f5ed8a5df99568d67907f0c00317df18991a76462395baf0d4",
         "988eecbdc07136e240cc6e5341ec36fa08533679822fb0b27ea33fc0c4eedc0f"),
    0: ("556a81d150c392dfb06f55c44e751abbe5dccaca62c1580e4dc864f83e7523e9",
        "522a71fe24f2556296404f2061a5eaf54fb7dfc525b328b77eb085fc341b80db",
        "28438b890969228f24385c0d45d106076f898245e7811beb8b3c3f235aec1130"),
    1: ("20a9af0c4acb3b810f1a90703e0b5ba41420f5f72b0deb7254af394161263bfb",
        "e888366e1a6599d474e15d9bb0afa4a746b0b93f3771ffa8e50843a7ba4c7d2a",
        "13efc7a23c0595761fb9b35cf2dfa87bf994e5871d2cdefc201f0dedd68e2869"),
}


@pytest.mark.parametrize("slot_offset", sorted(MULTI_FLOW_DIGESTS))
def test_multi_flow_feedback_closure_matches_recorded_digests(slot_offset):
    report, events, world = run_scenario(multi_flow_harq(slot_offset))
    rows = "".join(f"{r.ue_id} {r.tb_id} {r.first_tx_slot} {r.attempts} {r.state} "
                   f"{r.spoof_candidates}\n" for r in world.tb_log)
    # a TB sent once closes two slots after it went out, so an equal
    # first slot on one UE means two closures in the same slot
    first_sends = Counter((r.ue_id, r.first_tx_slot) for r in world.tb_log if r.attempts == 1)
    assert max(first_sends.values()) > 1
    assert {r.state for r in world.tb_log} == {"done", "failed"}
    assert any(r.spoof_candidates for r in world.tb_log)
    assert (_sha(report.to_csv()), _sha("".join(event_line(e) + "\n" for e in events)),
            _sha(rows)) == MULTI_FLOW_DIGESTS[slot_offset]
