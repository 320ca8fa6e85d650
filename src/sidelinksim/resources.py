"""Sensing-based resource selection over a subchannel x slot grid.

A slot is 1 ms (numerology 0, TS 38.211 4.3.2), so a reservation period
in ms is its length in slots. A claim is one subchannel span that recurs
every reservation interval: its SCI 1-A carries no time gap, so each
period holds one occurrence. A claim heard at slot t0 with reservation
interval r blocks cell (t, sc) of the selection window iff

    exists k in 0..missRefreshLimit:
        d = t0 + k*r - t,  d >= 0  and  d % P == 0

with P = slotsPerSelectionWindow, the period at which the pool grid
recurs. The k bound makes an unrefreshed claim lapse after
missRefreshLimit periods; the modulo term says a candidate slot stands
for a transmission position recurring every P, which is what collides
with the claim's later occurrences. For r below the window length this
yields the plain occurrence list (e.g. slots 5, 105, 205 for t0=5,
r=100, window 300); for r a multiple of P it gives the claim continuous
ownership of its pool position until it lapses.

Since the window is exactly P slots long, each occurrence t = t0 + k*r
blocks exactly one window slot, window_start + (t - window_start) % P,
when t >= window_start, and none otherwise. The projection is therefore
one subchannel bitmask per window slot, built once per occupancy map in
missRefreshLimit + 1 steps per claim, each one rri after the last; when
r is a multiple of P every step lands on the same window slot, so such
a claim sets its one cell in a single step. A heard claim is its
`ClaimShape`: the world decodes each distinct SCI 1-A payload straight
into one (`decode_shape`, memoised in `World.sci1a_cache`), and `sense`
makes one occurrence stream of each live shape it is handed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .frames import Sci1A, fra_decode, fra_encode

MISS_REFRESH_LIMIT = 2  # claims lapse after this many missed refresh periods
RESELECTION_COUNTER_RANGE = (5, 15)
# sensing and exclusion (TS 38.214 8.1.4): the sensing window, the first
# RSRP threshold, the share of positions that must stay free, and the step
# the threshold rises by until they do
SENSING_WINDOW_SLOTS = 1100
RSRP_EXCLUSION_THRESHOLD_DBM = -100.0
MIN_CANDIDATE_RATIO = 0.2
THRESHOLD_STEP_DB = 3.0


@dataclass
class ResourcePool:
    num_subchannels: int = 4
    slots_per_selection_window: int = 10
    period_list_ms: tuple[int, ...] = (100, 1000)

    def __post_init__(self):
        if not 1 <= self.num_subchannels <= 27:  # TS 38.331 sl-NumSubchannel
            raise ValueError(f"num_subchannels {self.num_subchannels} outside 1..27")
        # T2 is at most the remaining packet delay budget (TS 38.214 8.1.4),
        # and no budget here exceeds the longest reservation period
        if not 1 <= self.slots_per_selection_window <= 1000:
            raise ValueError(f"slots_per_selection_window {self.slots_per_selection_window} "
                             "outside 1..1000")
        if not self.period_list_ms:
            raise ValueError("period list must not be empty")
        if min(self.period_list_ms) <= 0:
            # a grant steps by its period, so a period of 0 or less never ends
            raise ValueError(f"period_list_ms holds {min(self.period_list_ms)}; "
                             "every period must be positive")
        if max(self.period_list_ms) > 1000:
            raise ValueError(f"period list max {max(self.period_list_ms)} exceeds 1000 ms")
        if 1000 not in self.period_list_ms:
            raise ValueError("period list must include 1000 ms")


@dataclass(slots=True)
class Reservation:
    """One projected occurrence stream decoded from a claim."""

    subchannel_start: int
    subchannel_len: int
    start_slot: int
    rri_slots: int
    observed_rsrp_dbm: float


@dataclass
class ControlBurst:
    """PSCCH payload: a standalone first-stage announcement (no data attached)."""

    sci1_bits: object  # BitString, decoded against the receiver's pool


@dataclass
class OccupancyMap:
    """Heard claims projected onto one selection window.

    `masks` is the projection (`blocked_masks`), made once when the map
    is built; a map with other reservations is a new map.
    """

    pool: ResourcePool
    window_start: int
    threshold_dbm: float
    reservations: list[Reservation]
    masks: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.masks = self.blocked_masks()

    def blocked_masks(self) -> list[int]:
        """Blocked subchannels per window slot, bit sc set when sc is taken."""
        period = self.pool.slots_per_selection_window
        masks = [0] * period
        window_start = self.window_start
        for res in self.reservations:
            span = ((1 << res.subchannel_len) - 1) << res.subchannel_start
            rri = res.rri_slots
            ahead = res.start_slot - window_start  # occurrence k is k * rri later
            if rri % period == 0:
                # every occurrence lands on one window slot, blocked once the
                # last of them is not before the window
                if ahead + MISS_REFRESH_LIMIT * rri >= 0:
                    masks[ahead % period] |= span
                continue
            for _ in range(MISS_REFRESH_LIMIT + 1):
                if ahead >= 0:
                    masks[ahead % period] |= span
                ahead += rri
        return masks


@dataclass(frozen=True)
class ClaimShape:
    """What one SCI 1-A reserves: subchannels [start, start + length) in
    the slot it was heard in, recurring every `rri_slots`. `lifetime` is
    how many slots after the heard slot the claim keeps blocking."""

    start: int
    length: int
    rri_slots: int
    lifetime: int


def claim_shape(sci: Sci1A, pool: ResourcePool) -> ClaimShape:
    """Decode the frequency, time and period fields of a claim. A claim
    is one occurrence per period, so a nonzero time gap is refused."""
    if sci.rri_index >= len(pool.period_list_ms):
        raise ValueError(f"rri index {sci.rri_index} past the period list")
    if sci.time_resource:
        raise ValueError(f"time resource {sci.time_resource} claims a time gap")
    start, length = fra_decode(pool.num_subchannels, sci.frequency_resource)
    rri = pool.period_list_ms[sci.rri_index]
    return ClaimShape(start, length, rri, MISS_REFRESH_LIMIT * rri)


def decode_shape(pool: ResourcePool, bits) -> ClaimShape:
    """`claim_shape` of SCI 1-A payload `bits`; ValueError for a bad one."""
    return claim_shape(Sci1A.decode(pool, bits), pool)


def sense(
    received: list[tuple[ClaimShape, float, int]],
    pool: ResourcePool,
    window_start: int,
) -> OccupancyMap:
    """Project heard claims onto the upcoming selection window.

    received holds (shape, rsrp, slot) per decoded announcement. Claims
    below the exclusion threshold are ignored, and so is each claim that
    expired before the window starts.
    """
    threshold = RSRP_EXCLUSION_THRESHOLD_DBM
    live = [Reservation(shape.start, shape.length, slot, shape.rri_slots, rsrp)
            for shape, rsrp, slot in received
            if rsrp >= threshold and slot + shape.lifetime >= window_start]
    return OccupancyMap(pool, window_start, threshold, live)


@dataclass
class Selection:
    slot: int
    subchannel_start: int
    subchannel_len: int
    candidate_count: int
    total_positions: int
    threshold_dbm: float

    @property
    def candidate_ratio(self) -> float:
        return self.candidate_count / self.total_positions


def candidate_positions(pool: ResourcePool, occ: OccupancyMap, demand: int) -> list[tuple[int, int]]:
    """All (slot, start) spans of `demand` subchannels avoiding blocked cells.

    Slot-major, start ascending: the selection draws by index into it.
    """
    span = (1 << demand) - 1
    starts = range(pool.num_subchannels - demand + 1)
    return [
        (occ.window_start + offset, start)
        for offset, mask in enumerate(occ.masks)
        for start in starts
        if not (mask >> start) & span
    ]


def select_resources(
    pool: ResourcePool,
    occ: OccupancyMap,
    demand: int,
    rng: random.Random,
) -> Selection:
    """Pick a transmission cell uniformly from the unblocked candidates.

    When fewer than MIN_CANDIDATE_RATIO of the positions are free, the
    exclusion threshold rises by THRESHOLD_STEP_DB and the heard claims
    still above it are projected onto a new map, dropping the weakest
    first, until enough candidates exist.
    """
    if demand < 1 or demand > pool.num_subchannels:
        raise ValueError(f"demand {demand} impossible on {pool.num_subchannels} subchannels")
    total = pool.slots_per_selection_window * (pool.num_subchannels - demand + 1)
    threshold, ratio, step = occ.threshold_dbm, MIN_CANDIDATE_RATIO, THRESHOLD_STEP_DB
    current = occ
    while True:
        cands = candidate_positions(pool, current, demand)
        # with no claim left every position is a candidate
        if not current.reservations or (cands and len(cands) / total >= ratio):
            break
        threshold += step
        kept = [r for r in current.reservations if r.observed_rsrp_dbm >= threshold]
        current = OccupancyMap(occ.pool, occ.window_start, threshold, kept)
    slot, start = rng.choice(cands)
    return Selection(slot, start, demand, len(cands), total, threshold)


def announce(pool: ResourcePool, start: int, length: int, rri_ms: int, priority: int) -> Sci1A:
    """SCI 1-A claiming subchannels [start, start + length) every rri_ms."""
    if rri_ms not in pool.period_list_ms:
        raise ValueError(f"rri {rri_ms} ms not in pool period list {pool.period_list_ms}")
    return Sci1A(
        priority=priority,
        frequency_resource=fra_encode(pool.num_subchannels, start, length),
        time_resource=0,
        rri_index=pool.period_list_ms.index(rri_ms),
        mcs=9,
    )


def draw_reselection_counter(rng: random.Random) -> int:
    lo, hi = RESELECTION_COUNTER_RANGE
    return rng.randint(lo, hi)

