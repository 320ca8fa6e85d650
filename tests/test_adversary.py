"""Attack agent behaviors: targeting, timing, capture, and the tracker."""

import random
from functools import reduce
from operator import add
from pathlib import Path

import pytest
import yaml

from sidelinksim.adversary import (
    ATTACK_REGISTRY,
    AttackKind,
    AttackPlan,
    AttackerCapability,
    TrackerAgent,
    build_attacker,
    pairs_from_clusters,
    pairs_from_truth,
    precision_recall_f1,
)
from sidelinksim.frames import (
    MibSl,
    Pc5Message,
    Pc5MessageKind as K,
    Sci2A,
    SlssIdentity,
)
from sidelinksim.defense import sign_ssb, verify_ssb
from sidelinksim.harq import DataBurst, FeedbackBurst
from sidelinksim.pc5 import refresh_identifier
from sidelinksim.radio import Transmission
from sidelinksim.resources import ControlBurst, ResourcePool, announce
from sidelinksim.frames import Sci1A
from sidelinksim.scenario import parse_scenario
from sidelinksim.simulation import run_scenario
from sidelinksim.sync import SsbBurst
from test_resources import reference_claims_from_sci, reference_total_cells

POOL = ResourcePool(4, 10, [100, 1000])
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CAP = AttackerCapability()


def permutation_f1_baseline(predicted_clusters: list[set[int]], truth: dict[int, int],
                            rng: random.Random, trials: int = 200) -> tuple[float, float]:
    """Chance level for the linkage score: shuffle which UE owns each id,
    keeping cluster sizes, and score the same prediction each time.
    Returns (mean, standard deviation) of the null F1 distribution.
    """
    predicted = pairs_from_clusters(predicted_clusters)
    ids = sorted(truth)
    owners = [truth[i] for i in ids]
    scores = []
    for _ in range(trials):
        shuffled = owners[:]
        rng.shuffle(shuffled)
        null_truth = dict(zip(ids, shuffled))
        scores.append(precision_recall_f1(predicted, pairs_from_truth(null_truth))["f1"])
    # left-to-right float sums, as the built-in sum gives only before Python 3.12
    mean = reduce(add, scores, 0.0) / len(scores)
    var = reduce(add, ((s - mean) ** 2 for s in scores), 0.0) / len(scores)
    return mean, var ** 0.5


def build(kind, window=(0, 1000), params=None, cap=CAP, seed="atk", ssb_key=b"\x07" * 32,
          tag_bits=32):
    plan = AttackPlan(kind, window, params or {})
    return build_attacker(9000, cap, plan, random.Random(seed),
                          pool=POOL, ssb_period=16, ssb_key=ssb_key, tag_bits=tag_bits)


def hear(agent, payload, slot, sender=1, rsrp=-70.0):
    agent.on_receptions([(Transmission(sender, 23.0, payload), rsrp)], slot)


def data_burst(src, dst, tb=1, harq=True, pid=3):
    sci2 = Sci2A(harq_process_id=pid, ndi=0, rv=0, source_id=src & 0xFF,
                 dest_id=dst & 0xFFFF, harq_enabled=harq, cast_type=0,
                 csi_request=False)
    return DataBurst(None, sci2.encode(), mac_src_l2=src, mac_dst_l2=dst,
                     tb_id=tb, size_bytes=300)


def test_registry_covers_all_kinds_and_validates_params():
    assert set(ATTACK_REGISTRY) == set(AttackKind)
    for kind, (cls, params) in ATTACK_REGISTRY.items():
        agent = build(kind)
        assert isinstance(agent, cls) and agent.kind == kind
        assert agent.params == {name: spec.default for name, spec in params.items()}
        for name, spec in params.items():
            assert isinstance(spec.help, str) and spec.help
    with pytest.raises(ValueError):
        build(AttackKind.FALSE_SYNC_INJECTION, params={"volume": 11})
    with pytest.raises(ValueError):
        AttackPlan(AttackKind.PC5_REPLAY, (100, 50))


def test_window_gating_and_jitter_bounds():
    agent = build(AttackKind.FALSE_SYNC_INJECTION, window=(100, 200))
    assert not agent.active(99) and agent.active(100)
    assert agent.active(199) and not agent.active(200)
    assert agent.jitter() == 0  # perfect timing by default
    sloppy = build(AttackKind.FALSE_SYNC_INJECTION,
                   cap=AttackerCapability(timing_precision_slots=2))
    draws = {sloppy.jitter() for _ in range(200)}
    assert draws == {-2, -1, 0, 1, 2}


def test_false_sync_injection_beacons_on_period():
    agent = build(AttackKind.FALSE_SYNC_INJECTION, window=(0, 100),
                  params={"slss_id": 0})
    assert agent.transmissions(15) == []
    out = agent.transmissions(16)
    assert len(out) == 1
    burst = out[0].payload
    assert isinstance(burst, SsbBurst)
    assert burst.slss.slss_id == 0 and burst.slss.in_coverage
    assert burst.mib.direct_frame_number == 1 and burst.mib.slot_index == 6
    # no key: the tag is noise, so a verifying receiver drops it
    assert not verify_ssb(b"\x01" * 32, 0, burst.mib.encode(), burst.auth_tag, 32)


def test_false_sync_injection_with_insider_key_signs_validly():
    key = b"\x07" * 32
    agent = build(AttackKind.FALSE_SYNC_INJECTION,
                  cap=AttackerCapability(has_key=True), ssb_key=key)
    burst = agent.transmissions(0)[0].payload
    assert verify_ssb(key, 0, burst.mib.encode(), burst.auth_tag, 32)


@pytest.mark.parametrize("tag_bits", [16, 32])
def test_beacon_tags_take_the_configured_length(tag_bits):
    key = b"\x07" * 32
    insider = build(AttackKind.FALSE_SYNC_INJECTION, cap=AttackerCapability(has_key=True),
                    ssb_key=key, tag_bits=tag_bits)
    outsider = build(AttackKind.FALSE_SYNC_INJECTION, ssb_key=key, tag_bits=tag_bits)
    signed, forged = (agent.transmissions(0)[0].payload for agent in (insider, outsider))
    assert verify_ssb(key, 0, signed.mib.encode(), signed.auth_tag, tag_bits)
    assert len(signed.auth_tag) == len(forged.auth_tag) == tag_bits // 4  # hex digits


def test_insider_beacons_capture_alike_at_either_tag_length():
    raw = yaml.safe_load((SCENARIO_DIR / "sync_false_injection_signed.yaml").read_text())
    raw["attacks"][0]["capability"]["has_key"] = True
    rows = []
    for tag_bits in (32, 16):
        raw["defenses"]["signed_ssb"]["tag_bits"] = tag_bits
        report, _, _ = run_scenario(parse_scenario(raw))
        rows.append((report.totals["sync_victims"], report.totals["ssb_rejected"]))
    assert rows[0] == rows[1] and rows[0][0] > 0 and rows[0][1] == 0, rows


def test_outsider_never_receives_the_key():
    agent = build(AttackKind.FALSE_SYNC_INJECTION, ssb_key=b"\x07" * 32)  # has_key=False
    assert agent.ssb_key is None


def test_sync_impersonation_clones_strongest_heard_identity():
    agent = build(AttackKind.SYNC_IMPERSONATION, window=(0, 100))
    weak = SsbBurst(SlssIdentity(40, True), MibSl(0, True, 0, 0))
    strong = SsbBurst(SlssIdentity(7, True), MibSl(1, True, 0, 0))
    hear(agent, weak, 0, sender=2, rsrp=-80.0)
    hear(agent, strong, 0, sender=3, rsrp=-60.0)
    assert agent.transmissions(1) == []  # off the victim's burst phase
    out = agent.transmissions(16)
    assert len(out) == 1
    clone = out[0].payload
    assert clone.slss.slss_id == 7
    assert clone.mib.tdd_config == 1
    assert clone.mib.direct_frame_number == 1  # refreshed, not parroted


def test_sync_impersonation_silent_until_it_hears_something():
    agent = build(AttackKind.SYNC_IMPERSONATION)
    assert agent.transmissions(0) == []


def test_resource_blocking_claims_requested_fraction():
    agent = build(AttackKind.RESOURCE_BLOCKING, window=(0, 5000),
                  params={"claim_fraction": 0.75, "rri_ms": 1000})
    seen = {}
    for slot in range(0, 1000):
        for tx in agent.transmissions(slot):
            assert isinstance(tx.payload, ControlBurst)
            sci = Sci1A.decode(POOL, tx.payload.sci1_bits)
            claim = reference_claims_from_sci(sci, POOL, -60.0, slot)[0]
            assert claim.rri_slots == 1000
            seen[(slot % 10, claim.subchannel_start)] = slot
    assert len(seen) == round(0.75 * reference_total_cells(POOL)) == 30
    # each claim refreshes every interval, holding the cells indefinitely
    refreshed = [tx for slot in range(1000, 2000) for tx in agent.transmissions(slot)]
    assert len(refreshed) == 30


def test_resource_blocking_listens_first_without_pool_knowledge():
    cap = AttackerCapability(knows_pool_config=False)
    agent = build(AttackKind.RESOURCE_BLOCKING, window=(0, 5000), cap=cap,
                  params={"pool_discovery_slots": 100})
    assert all(agent.transmissions(s) == [] for s in range(100))
    assert any(agent.transmissions(s) for s in range(100, 120))


def test_harq_spoof_targets_and_times_the_race():
    agent = build(AttackKind.HARQ_SPOOF_NACK, window=(0, 100),
                  params={"target_src_l2": 0x000111, "target_dst_l2": 0x000222})
    hear(agent, data_burst(0x000111, 0x000222, pid=5), 10)
    hear(agent, data_burst(0x000333, 0x000222), 10)  # wrong sender
    hear(agent, data_burst(0x000111, 0x000444), 10)  # wrong receiver
    assert agent.transmissions(11) == []
    out = agent.transmissions(12)  # tb slot + feedback delay
    assert len(out) == 1
    forged = out[0].payload
    assert isinstance(forged, FeedbackBurst) and forged.spoofed
    assert not forged.ack and forged.harq_process_id == 5
    assert forged.src_l2 == 0x000222 and forged.dst_l2 == 0x000111
    assert agent.transmissions(13) == []


def test_harq_spoof_ack_variant_and_slot_offset():
    agent = build(AttackKind.HARQ_SPOOF_ACK, window=(0, 100),
                  params={"slot_offset": 1})
    hear(agent, data_burst(0x000111, 0x000222), 10)
    assert agent.transmissions(12) == []
    out = agent.transmissions(13)
    assert out and out[0].payload.ack


def test_harq_spoof_ignores_feedback_disabled_and_inactive_windows():
    agent = build(AttackKind.HARQ_SPOOF_NACK, window=(50, 100))
    hear(agent, data_burst(1, 2, harq=False), 60)
    hear(agent, data_burst(1, 2), 10)  # before the window
    assert all(agent.transmissions(s) == [] for s in range(70))


def test_forged_reject_races_observed_requests():
    agent = build(AttackKind.PC5_FORGED_REJECT, window=(0, 100))
    req = Pc5Message(K.ESTABLISHMENT_REQUEST, 0x000101, 0x000202, 1,
                     {"nonce": "aa" * 16, "ts": 10, "knrp_id": 1,
                      "cipher": "REQUIRED", "integ": "REQUIRED",
                      "allow_null": 0, "auth_req": 0})
    hear(agent, req, 10)
    out = agent.transmissions(11)
    assert len(out) == 1
    forged = out[0].payload
    assert forged.kind == K.ESTABLISHMENT_REJECT
    assert forged.src_l2 == 0x000202  # impersonates the responder
    assert forged.dst_l2 == 0x000101  # hits the requester
    # header-only forger: it cannot echo the nonce it never parsed
    assert forged.body["echo_nonce"] != req.body["nonce"]


def test_replay_agent_re_emits_captured_frame_verbatim():
    agent = build(AttackKind.PC5_REPLAY, window=(0, 200),
                  params={"replay_delay_slots": 40})
    req = Pc5Message(K.ESTABLISHMENT_REQUEST, 0x000101, 0x000202, 1,
                     {"nonce": "bb" * 16, "ts": 10, "knrp_id": 2,
                      "cipher": "REQUIRED", "integ": "REQUIRED",
                      "allow_null": 0, "auth_req": 0})
    hear(agent, req, 10)
    assert agent.transmissions(49) == []
    out = agent.transmissions(50)
    assert len(out) == 1
    assert out[0].payload is req  # byte-for-byte the captured frame
    assert agent.transmissions(51) == []


def test_tracker_links_increment_scheme_first():
    agent = build(AttackKind.L2_TRACKING, window=(0, 1000),
                  params={"linkage_window_slots": 50})
    # UE A: id 100 then 101 (weak refresh); UE B: id 500 throughout
    for slot in range(0, 200, 40):
        hear(agent, data_burst(100, 0xFFFFFF, tb=slot), slot, rsrp=-70.0)
        hear(agent, data_burst(500, 0xFFFFFF, tb=slot), slot, rsrp=-60.0)
    for slot in range(200, 400, 40):
        hear(agent, data_burst(101, 0xFFFFFF, tb=slot), slot, rsrp=-70.0)
        hear(agent, data_burst(500, 0xFFFFFF, tb=slot), slot, rsrp=-60.0)
    clusters = agent.link()
    assert {100, 101} in clusters and {500} in clusters
    truth = {100: 1, 101: 1, 500: 2}
    assert agent.report(truth) == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_tracker_links_the_weak_refresh_past_the_broadcast_id():
    # 20 dB apart under a 0 dB power gate: only the increment rule can link
    agent = build(AttackKind.L2_TRACKING, params={"rsrp_similarity_db": 0.0})
    for old in (0xFFFFFE, 5):
        hear(agent, data_burst(old, 0xFFFFFF), 0, rsrp=-70.0)
    for new in (refresh_identifier(0xFFFFFE, set(), random.Random(0), "weak", set()), 6):
        hear(agent, data_burst(new, 0xFFFFFF), 20, rsrp=-90.0)
    clusters = agent.link()
    assert {0xFFFFFE, 0} in clusters and {5, 6} in clusters


def test_tracker_falls_back_to_power_similarity():
    agent = build(AttackKind.L2_TRACKING, params={"rsrp_similarity_db": 3.0})
    for slot in range(0, 100, 20):
        hear(agent, data_burst(0x111111, 0xFFFFFF), slot, rsrp=-70.0)
        hear(agent, data_burst(0x333333, 0xFFFFFF), slot, rsrp=-90.0)
    for slot in range(120, 220, 20):
        hear(agent, data_burst(0x222222, 0xFFFFFF), slot, rsrp=-70.4)
    clusters = agent.link()
    assert {0x111111, 0x222222} in clusters  # similar power, succession in window
    assert {0x333333} in clusters  # 20 dB apart never links


def test_tracker_respects_linkage_window():
    agent = build(AttackKind.L2_TRACKING, params={"linkage_window_slots": 50})
    hear(agent, data_burst(0x111111, 0xFFFFFF), 0, rsrp=-70.0)
    hear(agent, data_burst(0x222222, 0xFFFFFF), 100, rsrp=-70.0)
    assert agent.link() == [{0x111111}, {0x222222}]


def test_tracker_links_a_weak_successor_whatever_the_gap():
    # the +1 id comes 400 slots after its predecessor, past the 50-slot
    # window and 20 dB off it; an id at the same power that far apart
    # stays apart, since only the power fallback keeps the window
    agent = build(AttackKind.L2_TRACKING, params={"linkage_window_slots": 50,
                                                  "rsrp_similarity_db": 3.0})
    hear(agent, data_burst(0x111111, 0xFFFFFF), 0, rsrp=-70.0)
    hear(agent, data_burst(0x333333, 0xFFFFFF), 0, rsrp=-80.0)
    hear(agent, data_burst(0x111112, 0xFFFFFF), 400, rsrp=-90.0)
    hear(agent, data_burst(0x444444, 0xFFFFFF), 400, rsrp=-80.0)
    clusters = agent.link()
    assert {0x111111, 0x111112} in clusters
    assert {0x333333} in clusters and {0x444444} in clusters


def test_tracker_that_saw_no_id_reports_na():
    raw = yaml.safe_load((SCENARIO_DIR / "tracking_weak.yaml").read_text())
    raw["attacks"][0]["window"] = [10000, 10001]
    report, _, world = run_scenario(parse_scenario(raw))
    (tracker,) = world.attackers
    assert isinstance(tracker, TrackerAgent) and not tracker.traces
    for name in ("tracking_precision", "tracking_recall", "tracking_f1"):
        assert report.totals[name] is None
        assert f"{name},na" in report.to_csv()


def test_pair_scoring_edges():
    assert pairs_from_clusters([{1, 2, 3}]) == {(1, 2), (1, 3), (2, 3)}
    assert pairs_from_truth({5: 1, 9: 1, 7: 2}) == {(5, 9)}
    assert precision_recall_f1(set(), set()) == {
        "precision": 1.0, "recall": 1.0, "f1": 1.0}
    out = precision_recall_f1({(1, 2)}, set())
    assert out["precision"] == 0.0 and out["recall"] == 1.0
    out = precision_recall_f1({(1, 2), (3, 4)}, {(1, 2)})
    assert out["precision"] == 0.5 and out["recall"] == 1.0
    assert out["f1"] == pytest.approx(2 / 3)


def test_permutation_baseline_scores_chance_level():
    clusters = [{1, 2}, {3, 4}, {5, 6}, {7, 8}]
    truth = {i: (i - 1) // 2 for i in range(1, 9)}
    perfect = precision_recall_f1(pairs_from_clusters(clusters),
                                  pairs_from_truth(truth))["f1"]
    assert perfect == 1.0
    mean, sigma = permutation_f1_baseline(clusters, truth, random.Random(4), trials=300)
    assert 0.0 < mean < 0.5  # shuffled ownership rarely reproduces the pairs
    assert sigma > 0.0


def test_attack_actions_are_logged():
    agent = build(AttackKind.FALSE_SYNC_INJECTION, window=(0, 100))
    agent.transmissions(0)
    agent.transmissions(16)
    assert [a.slot for a in agent.actions] == [0, 16]
    assert all(a.kind == "false_sync_injection" and a.outcome == "sent"
               for a in agent.actions)


# -- deferred frames under jitter ----------------------------------------------
# The HARQ spoofer, the reactive PC5 forgers and the replay agent schedule
# frames for a later slot; the resource blocker refreshes each claimed cell
# on its own schedule and wastes a refresh that jitter moves. Each is driven
# here as the world drives it (transmissions for a slot, then that slot's
# receptions) with +-3 slots of timing jitter, which no catalog digest
# covers. A row records either an emitted frame or an action-log entry, in
# the order they happened, so the file pins slot, kind, outcome and order
# within a slot (missed windows included) and, through the forged nonces
# and the blocker's missed refreshes, each agent's rng draw order.
# attack_log_rows.txt holds the rows; a deliberate change re-records them
# with `"\n".join(deferred_frame_rows()) + "\n"`.

ATTACK_LOG_ROWS_FILE = Path(__file__).resolve().parent / "attack_log_rows.txt"
JITTERY = AttackerCapability(timing_precision_slots=3)


def _describe(payload) -> str:
    if isinstance(payload, ControlBurst):
        return f"claim {payload.sci1_bits.data.hex()}"
    if isinstance(payload, FeedbackBurst):
        return (f"feedback ack={payload.ack} pid={payload.harq_process_id}"
                f" src={payload.src_l2:x} dst={payload.dst_l2:x}")
    if isinstance(payload, SsbBurst):
        return (f"ssb {payload.slss.slss_id} cov={payload.slss.in_coverage}"
                f" dfn={payload.mib.direct_frame_number} at={payload.mib.slot_index}"
                f" tdd={payload.mib.tdd_config} tag={payload.auth_tag}")
    body = " ".join(f"{k}={v}" for k, v in payload.body.items())
    return f"{payload.kind.name} src={payload.src_l2:x} dst={payload.dst_l2:x} {body}"


def _drive(label, agent, heard, slots, jump=False) -> tuple[list[str], int]:
    """The rows of `slots` slots, and the number of slots visited. `heard`
    maps a slot to the (payload, rsrp) pairs heard in it. With `jump` only
    the slots the world would visit for the agent: the ones its `next_due`
    names and the ones it hears something in."""
    rows, logged, visited, slot = [], 0, 0, 0
    while slot < slots:
        visited += 1
        for tx in agent.transmissions(slot):
            rows.append(f"{label} {slot} tx {_describe(tx.payload)}")
        for action in agent.actions[logged:]:
            rows.append(f"{label} {action.slot} log {action.kind} {action.outcome}")
        logged = len(agent.actions)
        for payload, rsrp in heard.get(slot, ()):
            if type(payload) in agent.hears:  # as the world hands it
                hear(agent, payload, slot, rsrp=rsrp)
        if jump:
            slot = min(agent.next_due(slot + 1), *(s for s in heard if s > slot), slots)
        else:
            slot += 1
    return rows, visited


def test_each_attacker_hears_only_the_kinds_it_declares(monkeypatch):
    """A lossy-channel run with S-SSBs, broadcast and unicast data, HARQ
    feedback and PC5 links on air, and one attacker of each kind, hands
    each listening attacker receptions of every kind in its `hears` and of
    no other: lossy broadcast data goes to the data hearers only. An agent
    that hears nothing has no `on_receptions`."""
    heard = {}  # listening attacker class -> payload kinds handed to it
    for cls in dict.fromkeys(cls for cls, _ in ATTACK_REGISTRY.values()):
        if not cls.hears:
            assert not hasattr(cls, "on_receptions"), cls
            continue
        heard[cls] = set()

        def recording(self, receptions, slot, _heard=heard[cls], _on=cls.on_receptions):
            _heard.update(type(tx.payload) for tx, _ in receptions)
            return _on(self, receptions, slot)

        monkeypatch.setattr(cls, "on_receptions", recording)
    sc = parse_scenario({
        "duration_slots": 400,
        "channel": {"tb_error_rate": 0.3},
        "ues": [{"id": 0, "role": "gnss_visible"}, *({"id": i, "position": [30 * i, 0]}
                                                     for i in range(1, 5))],
        "traffic": [{"src": 1, "dst": "broadcast", "period_slots": 20, "harq": False},
                    {"src": 2, "dst": 3, "period_slots": 20}],
        "links": [{"initiator": 3, "responder": 4, "start_slot": 30},
                  {"initiator": 4, "responder": 1, "start_slot": 90}],
        "attacks": [{"kind": kind.value, "window": [0, 400],
                     "capability": {"position": [45, 10]}} for kind in AttackKind],
    })
    run_scenario(sc)
    assert heard == {cls: set(cls.hears) for cls in heard}


def _request(src, dst, n, kind=K.ESTABLISHMENT_REQUEST):
    return Pc5Message(kind, src, dst, 1, {"nonce": f"{n:02x}" * 16})


def deferred_drives() -> list[tuple[str, object, dict, int]]:
    """(label, fresh agent, slot -> payloads heard, slots) per drive."""
    bursts = {s: [(data_burst(0x100 + i, 0x200 + s, tb=s * 4 + i, pid=(s + i) % 16), -70.0)
                  for i in range(s % 3 + 1)] for s in range(4, 60, 3)}
    requests = {s: [(_request(0x300 + i, 0x400 + s, s + i), -70.0) for i in range(s % 3)]
                + [(_request(0x500, 0x600, s, K.AUTHENTICATION_REQUEST), -70.0)]
                for s in range(2, 50, 4)}
    blind = AttackerCapability(timing_precision_slots=3, knows_pool_config=False)
    return [
        ("nack", build(AttackKind.HARQ_SPOOF_NACK, window=(10, 50), cap=JITTERY, seed="nack"),
         bursts, 70),
        ("ack", build(AttackKind.HARQ_SPOOF_ACK, window=(0, 40), cap=JITTERY,
                      params={"slot_offset": -1}, seed="ack"), bursts, 70),
        ("reject", build(AttackKind.PC5_FORGED_REJECT, window=(5, 40), cap=JITTERY,
                         seed="reject"), requests, 60),
        ("auth", build(AttackKind.PC5_AUTH_DISRUPT, window=(5, 40), cap=JITTERY, seed="auth"),
         requests, 60),
        ("replay", build(AttackKind.PC5_REPLAY, window=(0, 45), cap=JITTERY,
                         params={"replay_delay_slots": 6}, seed="replay"), requests, 60),
        ("block", build(AttackKind.RESOURCE_BLOCKING, window=(20, 280), cap=blind,
                        params={"rri_ms": 100}, seed="block"), {}, 300),
    ]


def deferred_frame_rows() -> list[str]:
    return [row for drive in deferred_drives() for row in _drive(*drive)[0]]


def test_deferred_frames_match_recorded_rows():
    assert deferred_frame_rows() == ATTACK_LOG_ROWS_FILE.read_text().splitlines()


def _assert_jumping_matches_every_slot(drives, oracles) -> list[str]:
    """Drive each agent from one due slot to the next and each oracle in
    every slot: the same rows and the same rng state. Returns the rows."""
    rows = []
    for (label, agent, heard, slots), (_, oracle, _, _) in zip(drives, oracles):
        jumped, visited = _drive(label, agent, heard, slots, jump=True)
        every, _ = _drive(label, oracle, heard, slots)
        assert jumped == every, label
        assert agent.rng.getstate() == oracle.rng.getstate(), label
        assert visited < slots, label  # the jumps skip something
        rows += jumped
    return rows


def test_deferred_frames_jumping_from_due_slot_to_due_slot():
    rows = _assert_jumping_matches_every_slot(deferred_drives(), deferred_drives())
    assert rows == ATTACK_LOG_ROWS_FILE.read_text().splitlines()


def sync_drives() -> list[tuple[str, object, dict, int]]:
    """Both beaconing attackers, with perfect and with jittered timing, in
    a window that opens late and closes early, and in one that opens at
    once and closes early; the impersonator hears a weak, a stronger and a
    weaker burst, each on its own phase, from slot 50 on."""
    heard = {50: [(SsbBurst(SlssIdentity(40, True), MibSl(2, True, 0, 0)), -80.0)],
             83: [(SsbBurst(SlssIdentity(7, False), MibSl(1, False, 0, 0)), -60.0)],
             131: [(SsbBurst(SlssIdentity(9, True), MibSl(3, True, 0, 0)), -75.0)]}
    drives = []
    for jitter in (0, 3):
        cap = AttackerCapability(timing_precision_slots=jitter)
        for window in ((37, 170), (0, 200)):
            label = f"{jitter}:{window[0]}-{window[1]}"
            drives.append((f"impersonate:{label}", build(
                AttackKind.SYNC_IMPERSONATION, window=window, cap=cap, seed=label), heard, 240))
            drives.append((f"inject:{label}", build(
                AttackKind.FALSE_SYNC_INJECTION, window=window, cap=cap,
                params={"slss_id": 3}, seed=label), {}, 240))
    return drives


def test_beacons_jumping_from_due_slot_to_due_slot():
    rows = _assert_jumping_matches_every_slot(sync_drives(), sync_drives())
    for kind in ("impersonate", "inject"):
        for label in ("0:37-170", "3:37-170"):
            sent = [int(row.split()[1]) for row in rows
                    if row.startswith(f"{kind}:{label} ") and " tx " in row]
            assert sent and 37 <= min(sent) and max(sent) < 170, (kind, label)
