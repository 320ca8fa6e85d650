"""Occupancy projection, candidate filtering, and selection fallback."""

import random
from bisect import bisect_left
from dataclasses import replace
from operator import itemgetter

import pytest

from sidelinksim.bits import BitString
from sidelinksim.frames import Sci1A, fra_decode, fra_encode
from sidelinksim.resources import (
    MIN_CANDIDATE_RATIO,
    MISS_REFRESH_LIMIT,
    RSRP_EXCLUSION_THRESHOLD_DBM,
    SENSING_WINDOW_SLOTS,
    THRESHOLD_STEP_DB,
    ClaimShape,
    OccupancyMap,
    Reservation,
    ResourcePool,
    Selection,
    announce,
    candidate_positions,
    claim_shape,
    decode_shape,
    draw_reselection_counter,
    select_resources,
    sense,
)

POOL = ResourcePool(4, 10, [100, 1000])
POOL10 = ResourcePool(10, 20, [20, 50, 100, 1000])


def reference_claims_from_sci(sci: Sci1A, pool: ResourcePool, rsrp: float,
                              slot: int) -> list[Reservation]:
    """Expand a decoded SCI 1-A heard in `slot` into its occurrence stream,
    decoding its resource fields here rather than through `claim_shape`."""
    start, length = fra_decode(pool.num_subchannels, sci.frequency_resource)
    rri = pool.period_list_ms[sci.rri_index]  # 1 ms slots
    return [Reservation(start, length, slot, rri, rsrp)]


def shaped(received, pool):
    """(sci, rsrp, slot) entries as the world logs them: each claim as its
    shape, an undecodable (None) one left out."""
    return [(claim_shape(sci, pool), rsrp, slot)
            for sci, rsrp, slot in received if sci is not None]


def reference_total_cells(pool: ResourcePool) -> int:
    """Cells of one selection window: subchannels times slots."""
    return pool.num_subchannels * pool.slots_per_selection_window


def reference_expiry_slot(claim: Reservation) -> int:
    """The slot of the claim's last occurrence before it lapses."""
    return claim.start_slot + MISS_REFRESH_LIMIT * claim.rri_slots


def res(start_slot, rri, sc=0, width=1, rsrp=-60.0):
    return Reservation(sc, width, start_slot, rri, rsrp)


def blocked_at(claim, slot):
    """Whether the claim blocks `slot`, read off a window starting there."""
    return OccupancyMap(POOL, slot, -100.0, [claim]).blocked_masks()[0] != 0


def test_pool_validation():
    with pytest.raises(ValueError):
        ResourcePool(0, 10, [1000])
    with pytest.raises(ValueError):
        ResourcePool(4, 10, [100])  # missing the mandatory 1000 ms entry
    with pytest.raises(ValueError):
        ResourcePool(4, 10, [1000, 2000])
    assert reference_total_cells(POOL) == 40


def test_blocked_masks_hand_cases():
    r = res(5, 100)
    # k=0 projects slot 5 and every earlier slot congruent mod 10
    assert blocked_at(r, 5)
    assert blocked_at(r, 105)   # k=1 exact hit
    assert blocked_at(r, 205)   # k=2 exact hit
    assert not blocked_at(r, 305)  # beyond the miss-refresh bound
    assert not blocked_at(r, 6)    # different pool position
    assert blocked_at(r, 15)    # d=-10 at k=0 but k=1 gives 90 % 10 == 0
    assert reference_expiry_slot(r) == 205
    # one mask per window slot, bit sc set for each subchannel of the span
    wide = res(5, 100, sc=1, width=2)
    masks = OccupancyMap(POOL, 100, -100.0, [wide]).blocked_masks()
    assert masks == [0] * 5 + [0b0110] + [0] * 4


def test_blocked_masks_rri_multiple_of_period_owns_position():
    # r = 10 with P = 10: the claim owns its pool position while alive.
    r = res(3, 10)
    for slot in range(3, 24):
        expected = slot % 10 == 3 and slot <= 23
        assert blocked_at(r, slot) == expected


def test_a_claim_is_one_span_and_a_time_gap_is_refused():
    sci = Sci1A(priority=2, frequency_resource=fra_encode(4, 1, 2),
                time_resource=0, rri_index=0, mcs=9)
    assert claim_shape(sci, POOL) == ClaimShape(1, 2, 100, MISS_REFRESH_LIMIT * 100)
    gapped = replace(sci, time_resource=7)
    with pytest.raises(ValueError, match="time gap"):
        claim_shape(gapped, POOL)
    with pytest.raises(ValueError, match="time gap"):
        decode_shape(POOL, gapped.encode(POOL))


def test_sense_threshold_expiry_and_undecodable():
    fr = fra_encode(4, 0, 1)
    sci = Sci1A(priority=1, frequency_resource=fr,
                time_resource=0, rri_index=0, mcs=9)
    shape = claim_shape(sci, POOL)
    received = [
        (shape, -60.0, 900),    # live claim
        (shape, -120.0, 900),   # below exclusion threshold
        (shape, -60.0, 600),    # expiry 800 < window start: dropped
    ]
    occ = sense(received, POOL, window_start=1000)
    assert len(occ.reservations) == 1
    assert occ.reservations[0].start_slot == 900
    assert occ.threshold_dbm == RSRP_EXCLUSION_THRESHOLD_DBM
    # an undecodable payload has no shape, so it never reaches `sense`
    with pytest.raises(ValueError):
        decode_shape(POOL, BitString(b"\x00", 8))


def test_candidate_positions_matches_direct_enumeration():
    rng = random.Random(424242)
    for _ in range(60):
        claims = []
        for _ in range(rng.randint(0, 8)):
            claims.append(res(
                start_slot=rng.randint(0, 99),
                rri=rng.choice([10, 20, 100]),
                sc=rng.randint(0, 3),
                width=rng.randint(1, 2),
                rsrp=rng.uniform(-99, -50),
            ))
        window_start = rng.randint(100, 200)
        occ = OccupancyMap(POOL, window_start, -100.0,
                           [c for c in claims if reference_expiry_slot(c) >= window_start])
        demand = rng.randint(1, 3)
        got = set(candidate_positions(POOL, occ, demand))

        # independent re-derivation straight from the occupancy rule
        expected = set()
        for slot in range(window_start, window_start + 10):
            for start in range(POOL.num_subchannels - demand + 1):
                clear = True
                for c in occ.reservations:
                    hits_time = any(
                        (c.start_slot + k * c.rri_slots - slot) >= 0
                        and (c.start_slot + k * c.rri_slots - slot) % 10 == 0
                        for k in range(3)
                    )
                    overlap = not (start + demand <= c.subchannel_start
                                   or c.subchannel_start + c.subchannel_len <= start)
                    if hits_time and overlap:
                        clear = False
                        break
                if clear:
                    expected.add((slot, start))
        assert got == expected


def test_select_resources_raises_threshold_when_starved():
    # Strong claims own every position until the threshold climbs past them.
    claims = []
    for sc in range(4):
        for offset in range(10):
            claims.append(res(100 + offset, 10, sc=sc, rsrp=-80.0 + sc))
    occ = OccupancyMap(POOL, 100, -100.0, claims)
    sel = select_resources(POOL, occ, 1, random.Random(5))
    assert sel.threshold_dbm > -100.0
    assert sel.candidate_count >= 0.2 * sel.total_positions
    assert 100 <= sel.slot < 110


def test_select_resources_deterministic_for_seed():
    claims = [res(100 + i, 100, sc=i % 4, rsrp=-70.0) for i in range(6)]
    occ = OccupancyMap(POOL, 100, -100.0, claims)
    a = select_resources(POOL, occ, 2, random.Random(77))
    b = select_resources(POOL, occ, 2, random.Random(77))
    assert a == b
    with pytest.raises(ValueError):
        select_resources(POOL, occ, 5, random.Random(0))


def test_select_resources_empty_window_uniform():
    occ = OccupancyMap(POOL, 40, -100.0, [])
    rng = random.Random(3)
    seen = {select_resources(POOL, occ, 1, rng).slot for _ in range(200)}
    assert seen == set(range(40, 50))


def test_announce_round_trip_reproduces_claim():
    sel = Selection(slot=104, subchannel_start=1, subchannel_len=2,
                    candidate_count=30, total_positions=30, threshold_dbm=-100.0)
    sci = announce(POOL, sel.subchannel_start, sel.subchannel_len, 100, priority=3)
    decoded = Sci1A.decode(POOL, sci.encode(POOL))
    claims = reference_claims_from_sci(decoded, POOL, -60.0, sel.slot)
    assert len(claims) == 1
    c = claims[0]
    assert (c.start_slot, c.subchannel_start, c.subchannel_len) == (104, 1, 2)
    assert c.rri_slots == 100 and decoded.priority == 3
    with pytest.raises(ValueError):
        announce(POOL, sel.subchannel_start, sel.subchannel_len, 37, priority=1)


def test_reselection_counter_range():
    rng = random.Random(8)
    draws = {draw_reselection_counter(rng) for _ in range(500)}
    assert draws == set(range(5, 16))



# -- sense against the per-claim expansion ----------------------------------


def reference_sense(received, pool, window_start):
    """Every claim expanded on its own, then the expiry filter."""
    threshold = RSRP_EXCLUSION_THRESHOLD_DBM
    claims = [c for sci, rsrp, slot in received
              if sci is not None and rsrp >= threshold
              for c in reference_claims_from_sci(sci, pool, rsrp, slot)]
    live = [c for c in claims if reference_expiry_slot(c) >= window_start]
    return OccupancyMap(pool, window_start, threshold, live)


@pytest.mark.parametrize("pool", [POOL, POOL10], ids=["4x10", "10x20"])
def test_sense_matches_claim_expansion_table(pool):
    n = pool.num_subchannels
    rng = random.Random(n)
    scis = []
    for rri_index in range(len(pool.period_list_ms)):
        length = rng.randint(1, n)
        fr = fra_encode(n, rng.randint(0, n - length), length)
        scis.append(Sci1A(priority=rng.randint(0, 7), frequency_resource=fr,
                          time_resource=0, rri_index=rri_index, mcs=9))
    window_start = 2000
    received = []
    for slot in range(0, window_start, 7):
        sci = rng.choice(scis)
        twin = Sci1A(**vars(sci))  # equal claim, another object
        received.append((rng.choice((sci, sci, twin, None)),
                         rng.choice((-60.0, -99.5, -100.0, -100.5, -120.0)), slot))
    # claims whose expiry falls on either side of the window start
    for sci in scis:
        life = MISS_REFRESH_LIMIT * pool.period_list_ms[sci.rri_index]
        for edge in (window_start - 1, window_start):
            received.append((sci, -70.0, edge - life))
    received.sort(key=lambda entry: entry[2])
    got = sense(shaped(received, pool), pool, window_start)
    want = reference_sense(received, pool, window_start)
    assert got == want
    assert any(sci is None for sci, _, _ in received) and 0 < len(got.reservations) < len(
        [c for sci, _, slot in received if sci is not None
         for c in reference_claims_from_sci(sci, pool, -70.0, slot)])


# -- sense on the live suffix -----------------------------------------------------


@pytest.mark.parametrize("periods, cut", [((20, 100), True), ((20, 100, 1000), False)],
                         ids=["short-claims", "with-1000ms"])
def test_sense_on_the_reach_suffix_matches_the_whole_list(periods, cut):
    """The world hands `sense` only the entries heard at most the largest
    claim lifetime before the window; that gives the same reservations,
    in the same order. 1000 ms claims live past the sensing window, so
    their list keeps every entry."""
    pool = POOL10
    rng = random.Random(str(periods))
    scis = []
    for rri_ms in periods:
        for _ in range(3):
            length = rng.randint(1, 4)
            fr = fra_encode(10, rng.randint(0, 10 - length), length)
            scis.append(Sci1A(priority=rng.randint(0, 7), frequency_resource=fr,
                              time_resource=0,
                              rri_index=pool.period_list_ms.index(rri_ms), mcs=9))
    window_start = 3000
    received = [(rng.choice(scis + [None]), rng.choice((-60.0, -90.0, -120.0)), slot)
                for slot in range(window_start - SENSING_WINDOW_SLOTS, window_start, 3)]
    received = shaped(received, pool)
    reach = max(claim_shape(sci, pool).lifetime for sci in scis)
    live = bisect_left(received, window_start - reach, key=itemgetter(2))
    assert (live > 0) == cut
    whole = sense(received, pool, window_start)
    assert whole.reservations
    assert sense(received[live:], pool, window_start).reservations == whole.reservations


# -- the projection against the plain k-loop ----------------------------------


def reference_blocked_masks(pool, window_start, reservations) -> list[int]:
    """Every occurrence k = 0..MISS_REFRESH_LIMIT of every reservation,
    projected one at a time, whatever its rri."""
    period = pool.slots_per_selection_window
    masks = [0] * period
    for res in reservations:
        span = ((1 << res.subchannel_len) - 1) << res.subchannel_start
        ahead = res.start_slot - window_start
        for _ in range(MISS_REFRESH_LIMIT + 1):
            if ahead >= 0:
                masks[ahead % period] |= span
            ahead += res.rri_slots
    return masks


def reference_select(pool, occ, demand, rng):
    """`select_resources` on the k-loop masks: candidates slot-major, the
    threshold raised a step at a time over the kept reservations."""
    total = pool.slots_per_selection_window * (pool.num_subchannels - demand + 1)
    threshold, reservations = occ.threshold_dbm, occ.reservations
    while True:
        masks = reference_blocked_masks(pool, occ.window_start, reservations)
        cands = [(occ.window_start + offset, start)
                 for offset, mask in enumerate(masks)
                 for start in range(pool.num_subchannels - demand + 1)
                 if not any(mask >> sc & 1 for sc in range(start, start + demand))]
        if not reservations or (cands and len(cands) / total >= MIN_CANDIDATE_RATIO):
            break
        threshold += THRESHOLD_STEP_DB
        reservations = [r for r in reservations if r.observed_rsrp_dbm >= threshold]
    slot, start = rng.choice(cands)
    return Selection(slot, start, demand, len(cands), total, threshold)


def test_selection_matches_the_k_loop_projection():
    """Random pools whose period lists hold rri both multiples of the
    window and not, random claims heard at random levels, enough of them
    that the threshold often backs off."""
    rng = random.Random("projection")
    backed_off = aligned = unaligned = 0
    for trial in range(150):
        window = rng.choice((7, 10, 20, 25))
        periods = sorted({1000, *rng.sample((20, 40, 50, 100, 300, 500), rng.randint(1, 3))})
        n = rng.randint(2, 8)
        pool = ResourcePool(n, window, periods)
        scis = []
        for _ in range(rng.randint(1, 12)):
            length = rng.randint(1, n)
            fr = fra_encode(n, rng.randint(0, n - length), length)
            scis.append(Sci1A(priority=rng.randint(0, 7), frequency_resource=fr,
                              time_resource=0, rri_index=rng.randrange(len(periods)),
                              mcs=9))
        window_start = rng.randint(2500, 4000)
        received = sorted(((rng.choice(scis + [None]), rng.uniform(-110.0, -60.0),
                            window_start - rng.randint(1, 2200))
                           for _ in range(rng.randint(0, 120))), key=itemgetter(2))
        occ = sense(shaped(received, pool), pool, window_start)
        assert occ.masks == reference_blocked_masks(pool, window_start, occ.reservations)
        assert occ == reference_sense(received, pool, window_start)
        for res in occ.reservations:
            if res.rri_slots % window:
                unaligned += 1
            else:
                aligned += 1
        demand = rng.randint(1, n)
        got = select_resources(pool, occ, demand, random.Random(trial))
        want = reference_select(pool, occ, demand, random.Random(trial))
        assert got == want, trial
        backed_off += got.threshold_dbm > occ.threshold_dbm
    assert backed_off >= 15 and aligned >= 500 and unaligned >= 500, (backed_off, aligned,
                                                                       unaligned)
