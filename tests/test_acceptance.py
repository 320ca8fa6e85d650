"""End-to-end acceptance run: nine checks, one visible verdict line each.

Each test prints "PASS criterion N: ..." with the measured values once its
assertions hold; a failure surfaces as a normal pytest failure for that
criterion. Runtime bounds are asserted inside the tests.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from sidelinksim import resources, simulation
from sidelinksim.adversary import TrackerAgent
from sidelinksim.frames import (
    PROTECTION,
    MibSl,
    Pc5Message,
    Pc5MessageKind,
    Sci2A,
    SecurityPhase,
    SlssIdentity,
    fra_decode,
)
from sidelinksim.metrics import event_line
from sidelinksim.pc5 import (
    CIPHER_ALG,
    INTEG_ALG,
    KeyHierarchy,
    LinkSecurityContext,
    UnprotectError,
    derive_session,
    protect_pdu,
    unprotect_pdu,
)
from sidelinksim.radio import child_rng
from sidelinksim.resources import (
    MIN_CANDIDATE_RATIO,
    RSRP_EXCLUSION_THRESHOLD_DBM,
    THRESHOLD_STEP_DB,
    sense,
)
from sidelinksim.scenario import load_scenario
from sidelinksim.simulation import run_scenario
from sidelinksim.sync import tier
from test_frames import (
    TIER_CLASS,
    reference_coverage_class,
    reference_mib_sl_decode,
    reference_slss_id,
)
from test_adversary import permutation_f1_baseline

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def catalog(name):
    return load_scenario(SCENARIO_DIR / f"{name}.yaml")


@pytest.fixture
def announce(capfd):
    def _announce(line):
        with capfd.disabled():
            print(line, flush=True)
    return _announce


# --------------------------------------------------------------------------
# 1. frame fidelity


PROTECTION_FIXTURE = {
    1: (False, False, "before"),
    2: (True, True, "after"),
    3: (True, True, "after"),
    4: (True, True, "after"),
    5: (True, True, "after"),
    6: (True, True, "after"),
    7: (True, True, "after"),
    8: (True, True, "after"),
    9: (False, False, "before"),
    10: (False, False, "before"),
    11: (False, False, "before"),
    12: (False, True, "during"),
    13: (True, True, "during"),
    14: (False, False, "during"),
    15: (True, True, "after"),
    16: (True, True, "after"),
    17: (True, True, "after"),
    18: (True, True, "after"),
    19: (True, True, "after"),
    20: (True, True, "after"),
    21: (True, True, "after"),
    22: (False, False, "before"),
    23: (False, False, "before"),
}


def test_criterion_1_frame_fidelity(announce):
    t0 = time.perf_counter()
    rng = random.Random("accept:1")

    mib = MibSl(tdd_config=5, in_coverage=True, direct_frame_number=513, slot_index=9)
    assert mib.encode().bit_length == 32
    sci2 = Sci2A(harq_process_id=3, ndi=1, rv=2, source_id=0x5A, dest_id=0xBEEF,
                 harq_enabled=True, cast_type=0, csi_request=False)
    assert sci2.encode().bit_length == 35

    for _ in range(1000):
        m = MibSl(
            tdd_config=rng.getrandbits(12),
            in_coverage=bool(rng.getrandbits(1)),
            direct_frame_number=rng.randrange(1024),
            slot_index=rng.getrandbits(7),
        )
        assert reference_mib_sl_decode(m.encode()) == m
    for _ in range(1000):
        s = Sci2A(
            harq_process_id=rng.randrange(16),
            ndi=rng.getrandbits(1),
            rv=rng.randrange(4),
            source_id=rng.getrandbits(8),
            dest_id=rng.getrandbits(16),
            harq_enabled=bool(rng.getrandbits(1)),
            cast_type=rng.randrange(3),
            csi_request=bool(rng.getrandbits(1)),
        )
        assert Sci2A.decode(s.encode()) == s

    assert len(PROTECTION) == 23
    for kind, (ciphered, integrity, phase) in PROTECTION_FIXTURE.items():
        prof = PROTECTION[Pc5MessageKind(kind)]
        assert (prof.ciphered, prof.integrity, prof.phase) == \
            (ciphered, integrity, SecurityPhase(phase)), kind

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(f"PASS criterion 1: MIB-SL 32 bits, SCI 2-A 35 bits, 2x1000 "
             f"round-trips, 23-row protection fixture ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 2. SLSS bijection


def test_criterion_2_slss_bijection(announce):
    t0 = time.perf_counter()
    seen = {}
    for n_id2 in (0, 1):
        for n_id1 in range(336):
            ident = SlssIdentity(reference_slss_id(n_id2, n_id1), in_coverage=True)
            assert ident.slss_id not in seen
            seen[ident.slss_id] = (n_id2, n_id1)
    assert len(seen) == 672
    assert set(seen) == set(range(672))
    with pytest.raises(ValueError):
        SlssIdentity(672, True)

    # the SyncRef selector ranks each id by its coverage class
    for slss_id in (0, 1, 335, 336, 671):
        want = reference_coverage_class(slss_id)
        assert TIER_CLASS[tier(SlssIdentity(slss_id, True))] == want

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(f"PASS criterion 2: 672 distinct SLSS ids, boundary coverage "
             f"classes at 0/1/335/336/671 ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 3. sync attack and signed-beacon defense


def test_criterion_3_sync_capture_and_signed_defense(announce):
    t0 = time.perf_counter()
    report, _, _ = run_scenario(catalog("sync_false_injection"))
    captured = report.totals["sync_victims"]
    assert captured >= 4, f"only {captured}/5 victims captured"

    signed = catalog("sync_false_injection_signed")
    signed_captures = []
    for seed in range(20):
        rep, _, _ = run_scenario(signed, seed=1000 + seed)
        signed_captures.append(rep.totals["sync_victims"])
    assert signed_captures == [0] * 20, signed_captures

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(f"PASS criterion 3: false injection captured {captured}/5 victims; "
             f"signed beacons captured 0/5 across 20 seeds ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 4. resource blocking with brute-force oracle


def oracle_candidates(pool, snapshot, window_start, demand):
    """Independent re-derivation of the candidate count and threshold.

    Plain nested loops over the entries `sense` was handed: decode each
    claim, project every occurrence with the k in 0..2 / modulo rule,
    drop expired ones, count free spans, and raise the threshold in the
    same 3 dB steps until the one-in-five floor is met.
    """
    period = pool.slots_per_selection_window
    total = period * (pool.num_subchannels - demand + 1)
    threshold = RSRP_EXCLUSION_THRESHOLD_DBM
    while True:
        claims = []
        for sci, rsrp, heard in snapshot:
            if sci is None or rsrp < threshold:
                continue
            start, length = fra_decode(pool.num_subchannels, sci.frequency_resource)
            rri = pool.period_list_ms[sci.rri_index]  # 1 ms slots
            if heard + 2 * rri >= window_start:  # not yet expired
                claims.append((heard, rri, start, length))
        free = 0
        for slot in range(window_start, window_start + period):
            for sc_start in range(pool.num_subchannels - demand + 1):
                blocked = False
                for t0, rri, s0, length in claims:
                    hits = any(
                        t0 + k * rri - slot >= 0
                        and (t0 + k * rri - slot) % period == 0
                        for k in range(3)
                    )
                    if hits and not (sc_start + demand <= s0
                                     or s0 + length <= sc_start):
                        blocked = True
                        break
                if not blocked:
                    free += 1
        if free and (free / total >= MIN_CANDIDATE_RATIO or not claims):
            return free, threshold
        if not claims:
            return free, threshold
        threshold += THRESHOLD_STEP_DB


def mean_ratio(world, lo, hi):
    vals = [r.selection.candidate_count / r.selection.total_positions
            for r in world.selection_log if lo <= r.decided_slot < hi]
    assert vals, f"no selections decided in [{lo}, {hi})"
    return sum(vals) / len(vals)


def test_criterion_4_resource_blocking(announce, monkeypatch):
    t0 = time.perf_counter()
    sc = catalog("resource_blocking")
    sensed = []  # what each selection's `sense` call was handed
    # id(shape) -> the decoded SCI 1-A it came from; the world's memo keeps
    # every shape alive, so the ids stay valid
    origin = {}
    shape_of = resources.claim_shape

    def recorded(sci, pool):
        shape = shape_of(sci, pool)
        origin[id(shape)] = sci
        return shape

    with monkeypatch.context() as mp:
        mp.setattr(resources, "claim_shape", recorded)
        mp.setattr(simulation, "sense", lambda received, *args: (
            sensed.append(list(received)) or sense(received, *args)))
        attacked_rep, _, attacked = run_scenario(sc)
    baseline_rep, _, baseline = run_scenario(replace(sc, attacks=()))

    # brute-force oracle equality on every captured selection, each
    # entry's claim decoded from its SCI 1-A fields, not from its shape
    checked = 0
    assert len(sensed) == len(attacked.selection_log)
    for rec, entries in zip(attacked.selection_log, sensed):
        entries = [(origin[id(shape)], rsrp, heard) for shape, rsrp, heard in entries]
        count, threshold = oracle_candidates(
            sc.pool, entries, rec.decided_slot + 1, rec.selection.subchannel_len)
        assert count == rec.selection.candidate_count, rec
        assert threshold == rec.selection.threshold_dbm, rec
        checked += 1
    assert checked >= 20

    # candidate starvation while the attack holds its claims
    window_lo, window_hi = 600, sc.attacks[0].plan.window[1]
    starved = mean_ratio(attacked, window_lo, window_hi)
    healthy = mean_ratio(baseline, window_lo, window_hi)
    fraction = starved / healthy
    assert fraction <= 0.30, fraction

    # collisions strictly exceed baseline at the fixed catalog seed
    col_a = attacked_rep.totals["collision_count"]
    col_b = baseline_rep.totals["collision_count"]
    assert col_a > col_b

    # recovery: claims stop refreshing when the window closes; well within
    # two reservation intervals (stop + 2000 slots) ratios match baseline
    rri_slots = sc.attacks[0].plan.params["rri_ms"]  # 1 ms slots
    recover_from = window_hi + 2 * rri_slots - 990
    recovered = mean_ratio(attacked, recover_from, sc.duration_slots)
    healthy_tail = mean_ratio(baseline, recover_from, sc.duration_slots)
    assert recovered >= 0.9 * healthy_tail, (recovered, healthy_tail)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(f"PASS criterion 4: oracle equality on {checked} selections, "
             f"in-attack ratio {fraction:.3f} of baseline (<=0.30), collisions "
             f"{col_a}>{col_b}, post-attack ratio {recovered:.3f} vs baseline "
             f"{healthy_tail:.3f} ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 5. HARQ feedback spoofing


def targeted_tbs(world, scenario, sender_id=1):
    """TBs whose full retransmission span lies inside the attack window."""
    start, end = scenario.attacks[0].plan.window
    rri = scenario.traffic[0].rri_ms  # 1 ms slots
    span = 4 * rri  # MAX_RETRANSMISSIONS + 1 attempts, one per interval
    return [tb for tb in world.tb_log
            if tb.ue_id == sender_id
            and tb.first_tx_slot >= start
            and tb.first_tx_slot + span <= end]


def outcome_key(world):
    return [(tb.ue_id, tb.tb_id, tb.attempts, tb.state) for tb in world.tb_log]


def test_criterion_5_harq_spoofing(announce):
    t0 = time.perf_counter()

    # (a) false NACK exhausts retransmissions on targeted TBs
    nack_sc = catalog("harq_false_nack")
    _, _, nacked = run_scenario(nack_sc)
    targets = targeted_tbs(nacked, nack_sc)
    assert targets, "no TBs fully inside the attack window"
    exhausted = [tb for tb in targets if tb.attempts == 4 and tb.state == "failed"]
    nack_rate = len(exhausted) / len(targets)
    assert nack_rate >= 0.90, (len(exhausted), len(targets))

    # (b) false ACK opens a sender/receiver delivery gap absent at baseline
    ack_sc = catalog("harq_false_ack")
    ack_rep, _, _ = run_scenario(ack_sc)
    base_rep, _, _ = run_scenario(replace(ack_sc, attacks=()))
    gap = ack_rep.totals["sender_delivered"] - ack_rep.totals["receiver_delivered"]
    base_gap = base_rep.totals["sender_delivered"] - base_rep.totals["receiver_delivered"]
    assert gap > 0 and base_gap == 0, (gap, base_gap)

    # (c) one slot late, off the fixed feedback slot: no effect at all
    atk = nack_sc.attacks[0]
    late_plan = replace(atk.plan, params={**atk.plan.params, "slot_offset": 1})
    late_sc = replace(nack_sc, attacks=(replace(atk, plan=late_plan),))
    late_rep, _, late = run_scenario(late_sc)
    clean_rep, _, clean = run_scenario(replace(nack_sc, attacks=()))
    assert late_rep.totals["attack_frames_sent"] > 0
    assert late_rep.totals["feedback_spoofed"] == 0
    assert outcome_key(late) == outcome_key(clean)

    # (d) anomaly screen flags overpowered spoofs, modest false positives
    guard_rep, _, _ = run_scenario(catalog("harq_false_nack_guarded"))
    tg = guard_rep.totals
    assert tg["feedback_spoofed"] > 0
    spoof_flags = tg["feedback_flagged"] - tg["feedback_flagged_legit"]
    flag_rate = spoof_flags / tg["feedback_spoofed"]
    assert flag_rate >= 0.95, flag_rate
    fp_rate = tg["feedback_flagged_legit"] / tg["feedback_candidates_legit"]
    assert fp_rate < 0.10, fp_rate

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(f"PASS criterion 5: false-NACK exhausted {len(exhausted)}/{len(targets)} "
             f"targeted TBs, false-ACK gap {gap} (baseline {base_gap}), late spoofs "
             f"inert, {flag_rate:.0%} spoofs flagged, false-positive rate "
             f"{fp_rate:.1%} ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 6. PC5 signalling exploits


def test_criterion_6_pc5_exploits(announce):
    t0 = time.perf_counter()

    # (a) irreconcilable policies never produce a link
    mm_rep, _, _ = run_scenario(catalog("pc5_policy_mismatch"))
    assert mm_rep.totals["links_established"] == 0
    assert mm_rep.totals["policy_mismatches"] >= 1

    # (b) forged reject tears down pending links only without the guard
    rej_rep, _, _ = run_scenario(catalog("pc5_forged_reject"))
    aborted = rej_rep.totals["link_failures"]
    assert aborted >= 1
    grej_rep, _, _ = run_scenario(catalog("pc5_forged_reject_guarded"))
    assert grej_rep.totals["link_failures"] == 0
    assert grej_rep.totals["replay_rejects"] >= 1
    assert grej_rep.totals["links_established"] == 4

    # (c) replayed pre-security request only fools the unguarded stack
    rep_rep, _, _ = run_scenario(catalog("pc5_replay"))
    assert rep_rep.totals["duplicate_sessions"] >= 1
    grep_rep, _, _ = run_scenario(catalog("pc5_replay_guarded"))
    assert grep_rep.totals["duplicate_sessions"] == 0
    assert grep_rep.totals["replay_rejects"] >= 1

    # (d) post-establishment protection: every tampered PDU is discarded
    rng = random.Random("accept:6d")
    kh = derive_session(KeyHierarchy(b"\x31" * 32).with_knrp(5),
                        b"\x0c" * 16, b"\x0d" * 16, CIPHER_ALG, INTEG_ALG)
    tampered = tried = 0
    protected_kinds = [k for k, prof in PROTECTION.items()
                       if prof.phase is SecurityPhase.AFTER]
    for i, kind in enumerate(protected_kinds * 3):
        tx = LinkSecurityContext(kh, True, True, tx_count=i)
        wire = protect_pdu(tx, Pc5Message(kind, 0x000101, 0x000202, i,
                                          {"n": i, "nonce": "ab" * 16}))
        mutations = [
            replace(wire, auth_tag=rng.randbytes(4).hex()),
            replace(wire, cipher_blob=rng.randbytes(len(wire.cipher_blob) // 2).hex()),
            replace(wire, counter=wire.counter + 1000),
            replace(wire, src_l2=0x000303),
        ]
        for mutant in mutations:
            tried += 1
            rx = LinkSecurityContext(kh, True, True)
            try:
                unprotect_pdu(rx, mutant)
            except UnprotectError:
                tampered += 1
    assert tried == len(protected_kinds) * 3 * 4
    assert tampered == tried  # 100% discarded

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(f"PASS criterion 6: mismatch yields 0 links, forged reject aborts "
             f"{aborted} unguarded / 0 guarded, replay accepted only unguarded, "
             f"{tampered}/{tried} tampered PDUs discarded ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 7. layer-2 tracking vs identifier randomization


def test_criterion_7_tracking(announce):
    t0 = time.perf_counter()
    static_rep, _, _ = run_scenario(catalog("tracking_static"))
    assert static_rep.totals["tracking_f1"] == 1.0

    weak_rep, _, _ = run_scenario(catalog("tracking_weak"))
    weak_f1 = weak_rep.totals["tracking_f1"]
    assert weak_f1 >= 0.9, weak_f1

    secure_sc = catalog("tracking_secure")
    secure_rep, _, secure = run_scenario(secure_sc)
    secure_f1 = secure_rep.totals["tracking_f1"]
    tracker = next(a for a in secure.attackers if isinstance(a, TrackerAgent))
    truth = {observed: secure.identity_truth[observed]
             for observed in tracker.traces if observed in secure.identity_truth}
    null_mean, null_sigma = permutation_f1_baseline(
        tracker.link(), truth, child_rng(secure_sc.seed, "permbase"))
    assert null_sigma > 0
    assert abs(secure_f1 - null_mean) <= 2 * null_sigma, \
        (secure_f1, null_mean, null_sigma)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(f"PASS criterion 7: static F1 1.00, weak F1 {weak_f1:.2f}, secure "
             f"F1 {secure_f1:.3f} within 2 sigma of chance {null_mean:.3f}"
             f"+/-{null_sigma:.3f} ({elapsed:.2f}s)")


def test_criterion_7_weak_tracking_holds_over_seeds(announce):
    sc = catalog("tracking_weak")
    t0 = time.perf_counter()
    f1 = [run_scenario(sc, seed=seed)[0].totals["tracking_f1"] for seed in range(20)]
    assert min(f1) >= 0.9, f1
    announce(f"PASS criterion 7 over seeds 0-19: weak F1 min {min(f1):.2f}, median "
             f"{sorted(f1)[10]:.2f}, {sum(v < 0.9 for v in f1)} below 0.9 "
             f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_3_sync_capture_holds_over_seeds(announce):
    sc = catalog("sync_false_injection")
    t0 = time.perf_counter()
    captured = [run_scenario(sc, seed=seed)[0].totals["sync_victims"] for seed in range(20)]
    assert min(captured) >= 4, captured
    announce(f"PASS criterion 3 over seeds 0-19: victims captured min {min(captured)}/5, "
             f"median {sorted(captured)[10]}/5, {sum(v < 4 for v in captured)} below 4 "
             f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_4_resource_blocking_holds_over_seeds(announce):
    sc = catalog("resource_blocking")
    baseline = replace(sc, attacks=())
    window_lo, window_hi = 600, sc.attacks[0].plan.window[1]
    t0 = time.perf_counter()
    fractions, margins = [], []
    for seed in range(20):
        attacked_rep, _, attacked = run_scenario(sc, seed=seed)
        baseline_rep, _, healthy = run_scenario(baseline, seed=seed)
        fractions.append(mean_ratio(attacked, window_lo, window_hi)
                         / mean_ratio(healthy, window_lo, window_hi))
        margins.append(attacked_rep.totals["collision_count"]
                       - baseline_rep.totals["collision_count"])
    assert max(fractions) <= 0.30, fractions
    assert min(margins) > 0, margins
    announce(f"PASS criterion 4 over seeds 0-19: in-attack ratio max {max(fractions):.3f}, "
             f"median {sorted(fractions)[10]:.3f} of baseline (<=0.30), "
             f"{sum(f > 0.30 for f in fractions)} above; collisions over baseline min "
             f"{min(margins)}, {sum(m <= 0 for m in margins)} not above "
             f"({time.perf_counter() - t0:.2f}s)")


# --------------------------------------------------------------------------
# 8. catalog determinism


def test_criterion_8_catalog_determinism(announce):
    files = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(files) >= 16
    slowest = 0.0
    for path in files:
        sc = load_scenario(path)
        t0 = time.perf_counter()
        r1, e1, _ = run_scenario(sc)
        single = time.perf_counter() - t0
        slowest = max(slowest, single)
        assert single < 10.0, (path.name, single)
        r2, e2, _ = run_scenario(sc)
        assert r1.to_csv() == r2.to_csv(), path.name
        lines1 = [event_line(e) for e in e1]
        lines2 = [event_line(e) for e in e2]
        assert lines1 == lines2, path.name
    announce(f"PASS criterion 8: {len(files)} catalog scenarios byte-identical "
             f"across repeat runs (slowest single run {slowest:.2f}s)")


# --------------------------------------------------------------------------
# 9. the attacker's capability levers, over seeds


def with_capability(scenario, **change):
    """`scenario` with its one attacker's capability changed."""
    (atk,) = scenario.attacks
    return replace(scenario, attacks=(replace(atk, capability=replace(atk.capability,
                                                                      **change)),))


def test_criterion_9_an_insider_key_beats_beacon_signing_over_seeds(announce):
    signed = catalog("sync_false_injection_signed")
    insider = with_capability(signed, has_key=True)
    t0 = time.perf_counter()
    outsider_victims, insider_victims, insider_rejected = [], [], []
    for seed in range(20):
        outsider_victims.append(run_scenario(signed, seed=seed)[0].totals["sync_victims"])
        totals = run_scenario(insider, seed=seed)[0].totals
        insider_victims.append(totals["sync_victims"])
        insider_rejected.append(totals["ssb_rejected"])
    assert all(i >= o for i, o in zip(insider_victims, outsider_victims)), (
        insider_victims, outsider_victims)
    # every other beacon is a legitimate UE's, signed with the key
    assert insider_rejected == [0] * 20, insider_rejected
    announce(f"PASS criterion 9 over seeds 0-19: with signed beacons an insider captures "
             f"{sum(insider_victims)} victims (min {min(insider_victims)}/5), an outsider "
             f"{sum(outsider_victims)} (max {max(outsider_victims)}/5); beacons rejected "
             f"with the insider {sum(insider_rejected)} "
             f"({time.perf_counter() - t0:.2f}s)")


JITTERS = (0, 1, 2, 8)


def test_criterion_9_timing_jitter_blunts_the_nack_spoofer_over_seeds(announce):
    sc = catalog("harq_false_nack")
    t0 = time.perf_counter()
    spoofed, exhausted = [], []
    for jitter in JITTERS:
        variant = with_capability(sc, timing_precision_slots=jitter)
        totals = [run_scenario(variant, seed=seed)[0].totals for seed in range(20)]
        spoofed.append(sum(t["feedback_spoofed"] for t in totals))
        exhausted.append(sum(t["harq_failures"] for t in totals))
    # a spoof counts only in the one feedback slot, so jitter can only cost it
    assert spoofed == sorted(spoofed, reverse=True), spoofed
    assert exhausted == sorted(exhausted, reverse=True), exhausted
    assert spoofed[0] > 0 and exhausted[0] > 0, (spoofed, exhausted)
    announce(f"PASS criterion 9 over seeds 0-19: at jitter {'/'.join(map(str, JITTERS))} "
             f"slots the NACK spoofer counts {'/'.join(map(str, spoofed))} spoofs and "
             f"exhausts {'/'.join(map(str, exhausted))} TBs "
             f"({time.perf_counter() - t0:.2f}s)")
