"""Synchronization source selection and identity derivation."""

import random

from hypothesis import given, settings, strategies as st

from sidelinksim.frames import SlssIdentity
from sidelinksim.sync import (
    DIFF_HYST_DB,
    SELECTION_RSRP_THRESHOLD_DBM,
    TX_THRESH_OOC_DBM,
    CandidateBuffer,
    SyncCandidate,
    SyncDecision,
    SyncSourceKind,
    SyncState,
    derive_own_slss,
    select_sync_ref,
    should_transmit_ssb,
    tier,
)


def cand(slss_id, in_cov, rsrp, slot=0, sender=-1):
    return SyncCandidate(SlssIdentity(slss_id, in_cov), rsrp, slot, sender)


def reference_rank_candidates(cands):
    """Usable candidates, best first, by sorting; below-threshold entries
    are dropped."""
    usable = [c for c in cands if c.rsrp_dbm >= SELECTION_RSRP_THRESHOLD_DBM]
    return sorted(usable, key=lambda c: (tier(c.slss), -c.rsrp_dbm, c.slss.slss_id))


def reference_select_sync_ref(current, cands):
    """`select_sync_ref` as it was: rank every usable candidate, then
    walk the ranking."""
    ranked = reference_rank_candidates(cands)
    if not ranked:
        return SyncDecision("internal_clock")
    best = ranked[0]
    if current is None:
        return SyncDecision("switch", best)
    if tier(best.slss) < tier(current.slss):
        return SyncDecision("switch", best)
    if (
        tier(best.slss) == tier(current.slss)
        and best.slss.slss_id != current.slss.slss_id
        and best.rsrp_dbm >= current.rsrp_dbm + DIFF_HYST_DB
    ):
        return SyncDecision("switch", best)
    if best.slss.slss_id == current.slss.slss_id:
        return SyncDecision("keep", best)
    return SyncDecision("keep", current)


def test_tier_boundaries():
    assert tier(SlssIdentity(0, True)) == 0
    assert tier(SlssIdentity(0, False)) == 0
    assert tier(SlssIdentity(1, True)) == 1
    assert tier(SlssIdentity(335, True)) == 1
    assert tier(SlssIdentity(1, False)) == 2
    assert tier(SlssIdentity(336, True)) == 3
    assert tier(SlssIdentity(336, False)) == 4
    assert tier(SlssIdentity(671, False)) == 4


def test_rank_drops_below_threshold():
    weak = cand(5, True, SELECTION_RSRP_THRESHOLD_DBM - 0.1)
    strong = cand(400, False, -60)
    assert reference_rank_candidates([weak, strong]) == [strong]
    # the weak candidate's tier would outrank the strong one's
    assert select_sync_ref(None, [weak, strong]).candidate is strong


def test_rank_matches_brute_force():
    rng = random.Random(42)
    for _ in range(300):
        cands = [
            cand(rng.randrange(672), bool(rng.getrandbits(1)),
                 rng.uniform(-120, -50), sender=i)
            for i in range(rng.randint(0, 8))
        ]
        expected = sorted(
            (c for c in cands if c.rsrp_dbm >= SELECTION_RSRP_THRESHOLD_DBM),
            key=lambda c: (tier(c.slss), -c.rsrp_dbm, c.slss.slss_id),
        )
        assert reference_rank_candidates(list(cands)) == expected


# ids at every tier edge: 0, the in-coverage range 1..335 and the
# out-of-coverage range 336..671, each with and without the indicator
SYNC_IDS = st.sampled_from((0, 1, 7, 335, 336, 400, 671))


@st.composite
def sync_rankings(draw):
    """(current, candidates) for `select_sync_ref`: few ids, so duplicates
    are common, and powers on the threshold and the switching margin, so
    ties and edges are common too."""
    threshold = SELECTION_RSRP_THRESHOLD_DBM
    edges = (threshold - 0.5, threshold, threshold + 1.0, threshold + DIFF_HYST_DB,
             -80.0, -80.0 + DIFF_HYST_DB)
    power = st.one_of(st.sampled_from(edges), st.floats(-120.0, -50.0))

    def candidate(sender):
        return cand(draw(SYNC_IDS), draw(st.booleans()), draw(power), sender=sender)

    cands = [candidate(i) for i in range(draw(st.integers(0, 7)))]
    held = draw(st.sampled_from(("none", "listed", "absent") if cands else ("none", "absent")))
    current = (None if held == "none" else draw(st.sampled_from(cands)) if held == "listed"
               else candidate(-2))
    return current, cands


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=sync_rankings())
def test_one_pass_selection_matches_the_sorted_ranking(case):
    current, cands = case
    got = select_sync_ref(current, cands)
    want = reference_select_sync_ref(current, cands)
    assert got.action == want.action
    assert got.candidate is want.candidate


def test_acquire_needs_the_threshold():
    edge = cand(10, True, SELECTION_RSRP_THRESHOLD_DBM - 0.1)
    assert select_sync_ref(None, [edge]).action == "internal_clock"
    ok = cand(10, True, SELECTION_RSRP_THRESHOLD_DBM)
    assert select_sync_ref(None, [ok]).action == "switch"


def test_better_tier_switches_without_hysteresis():
    current = cand(100, True, -60)  # tier 1, strong
    usurper = cand(0, True, -80)    # tier 0, much weaker
    decision = select_sync_ref(current, [usurper, current])
    assert decision.action == "switch"
    assert decision.candidate.slss.slss_id == 0


def test_same_tier_needs_rsrp_margin():
    current = cand(100, True, -70)
    rival_weak = cand(200, True, -70 + DIFF_HYST_DB - 0.1)
    rival_strong = cand(200, True, -70 + DIFF_HYST_DB)
    assert select_sync_ref(current, [rival_weak, current]).action == "keep"
    decision = select_sync_ref(current, [rival_strong, current])
    assert decision.action == "switch"
    assert decision.candidate.slss.slss_id == 200


def test_same_id_keeps_with_updated_measurement():
    current = cand(100, True, -70, slot=0, sender=7)
    louder = cand(100, True, -55, slot=16, sender=9)
    decision = select_sync_ref(current, [louder])
    assert decision.action == "keep"
    assert decision.candidate is louder  # measurement (and sender) refreshed


def test_empty_candidates_lapse_to_internal_clock():
    current = cand(100, True, -70)
    assert select_sync_ref(current, []).action == "internal_clock"
    assert select_sync_ref(None, []).action == "internal_clock"


def test_should_transmit_ssb():
    for primary in (SyncSourceKind.GNSS, SyncSourceKind.GNODE_B):
        assert should_transmit_ssb(SyncState(primary), -50)  # primary sources always send
    for source in (SyncSourceKind.INTERNAL_CLOCK, SyncSourceKind.SYNC_REF_UE):
        plain = SyncState(source)
        assert should_transmit_ssb(plain, None)  # no reference at all
        assert should_transmit_ssb(plain, TX_THRESH_OOC_DBM - 0.1)
        assert not should_transmit_ssb(plain, TX_THRESH_OOC_DBM)


def test_derive_own_slss_ranges():
    rng = random.Random(5)
    assert derive_own_slss(SyncSourceKind.GNSS, None, rng) == SlssIdentity(0, True)
    for _ in range(50):
        own = derive_own_slss(SyncSourceKind.GNODE_B, None, rng)
        assert 1 <= own.slss_id <= 335 and own.in_coverage
        own = derive_own_slss(SyncSourceKind.INTERNAL_CLOCK, None, rng)
        assert 336 <= own.slss_id <= 671 and not own.in_coverage


def test_derive_own_slss_follows_reference():
    rng = random.Random(6)
    # chaining off a GNSS-locked ref keeps id 0 but clears the indicator
    own = derive_own_slss(SyncSourceKind.SYNC_REF_UE, SlssIdentity(0, True), rng)
    assert own == SlssIdentity(0, False)
    # chaining off an in-coverage ref draws from the in-coverage range
    for _ in range(50):
        own = derive_own_slss(SyncSourceKind.SYNC_REF_UE, SlssIdentity(42, True), rng,
                              heard_ids={42})
        assert 1 <= own.slss_id <= 335 and not own.in_coverage
        assert own.slss_id != 42
    # chaining off an out-of-coverage ref draws a fresh OOC id
    for _ in range(50):
        own = derive_own_slss(SyncSourceKind.SYNC_REF_UE, SlssIdentity(400, False), rng,
                              heard_ids={400, 401})
        assert 336 <= own.slss_id <= 671 and not own.in_coverage
        assert own.slss_id not in (400, 401)


def test_candidate_buffer_keeps_stronger_instance():
    buf = CandidateBuffer(retention_slots=32)
    buf.note(cand(9, True, -60, slot=0, sender=1))
    buf.note(cand(9, True, -80, slot=4, sender=2))  # weaker clone, ignored
    assert buf.entries[9].sender_id == 1
    buf.note(cand(9, True, -50, slot=8, sender=3))  # stronger clone wins
    assert buf.entries[9].sender_id == 3


def test_candidate_buffer_counts_changes():
    buf = CandidateBuffer(retention_slots=32)
    buf.note(cand(9, True, -60, slot=0))
    assert buf.changes == 1  # a new entry
    buf.note(cand(9, True, -80, slot=4))  # weaker fresh duplicate, ignored
    assert buf.changes == 1
    buf.note(cand(9, True, -50, slot=8))  # stronger duplicate replaces
    assert buf.changes == 2
    buf.prune(40)  # floor at slot 8: nothing ages out
    assert buf.changes == 2
    buf.note(cand(12, True, -70, slot=20))
    buf.prune(41)  # the slot-8 entry ages out
    assert buf.changes == 4 and list(buf.entries) == [12]
    buf.prune(41)
    assert buf.changes == 4


def test_an_identical_refresh_moves_the_expiry_but_is_no_change():
    buf = CandidateBuffer(retention_slots=32)
    assert buf.note(cand(9, True, -60, slot=0, sender=1))
    assert buf.changes == 1 and buf.expiry() == 33
    # the same burst heard again a period later: a ranking sees nothing new
    assert not buf.note(cand(9, True, -60, slot=16, sender=1))
    assert buf.changes == 1 and buf.expiry() == 49
    assert buf.entries[9].received_slot == 16
    buf.prune(48)  # the refresh keeps the entry from ageing out
    assert list(buf.entries) == [9] and buf.changes == 1


def test_a_refresh_that_changes_power_coverage_or_sender_is_a_change():
    buf = CandidateBuffer(retention_slots=32)
    buf.note(cand(9, True, -60, slot=0, sender=1))
    for slot, refresh in enumerate([cand(9, True, -59, sender=1),  # power
                                    cand(9, False, -59, sender=1),  # coverage flag
                                    cand(9, False, -59, sender=2)],  # sender
                                   start=1):
        refresh.received_slot = slot
        assert buf.note(refresh)
        assert buf.changes == 1 + slot and buf.entries[9] is refresh


def test_candidate_buffer_ages_out():
    buf = CandidateBuffer(retention_slots=32)
    buf.note(cand(9, True, -60, slot=0))
    buf.note(cand(11, True, -70, slot=30))
    buf.prune(32)  # floor at slot 0, both still inside
    assert set(buf.entries) == {9, 11}
    buf.prune(40)
    assert list(buf.entries) == [11]
    # a stale strong entry no longer shadows a new weak one
    buf.note(cand(11, True, -90, slot=100))
    assert buf.entries[11].rsrp_dbm == -90


def reference_fresh(buf, now):
    """`CandidateBuffer` pruning as it was: scan every entry on every
    call, then list the survivors."""
    floor = now - buf.retention_slots
    stale = [sid for sid, c in buf.entries.items() if c.received_slot < floor]
    for sid in stale:
        del buf.entries[sid]
    buf.changes += len(stale)
    return list(buf.entries.values())


NOTE = st.tuples(st.just("note"), st.integers(0, 4), st.sampled_from((-90, -70, -50)),
                 st.integers(0, 150))
PRUNE = st.tuples(st.just("prune"), st.integers(0, 200))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(st.one_of(NOTE, PRUNE), max_size=40))
def test_prune_matches_scanning_every_call(ops):
    # slots in any order, though the world notes and prunes them in slot order
    buf, ref = CandidateBuffer(retention_slots=32), CandidateBuffer(retention_slots=32)
    for op in ops:
        if op[0] == "note":
            _, sid, rsrp, slot = op
            assert buf.note(cand(sid, True, rsrp, slot)) == ref.note(cand(sid, True, rsrp, slot))
        else:
            buf.prune(op[1])
            assert list(buf.entries.values()) == reference_fresh(ref, op[1])
        assert buf.changes == ref.changes
        assert list(buf.entries.items()) == list(ref.entries.items())
        # the expiry held in O(1) equals a scan of the entries
        slots = [c.received_slot for c in ref.entries.values()]
        assert buf.expiry() == (min(slots) + ref.retention_slots + 1 if slots else None)
