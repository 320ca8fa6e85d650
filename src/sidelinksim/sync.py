"""SyncRef selection and S-SSB transmission decisions.

Candidates are ranked by a five-tier priority: the GNSS-direct id 0
outranks everything, then in-coverage senders with the priority
indicator set, in-coverage without it, out-of-coverage with it, and
out-of-coverage without it. Within a tier higher power wins; remaining
ties go to the lowest id. Selection applies entry hysteresis on first
lock and a switching margin afterwards; with no usable candidate the
UE falls back to its internal clock. A selection finds the best usable
candidate in one pass over the candidates, without sorting them.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

from .frames import MibSl, SlssIdentity


@dataclass
class SyncConfig:
    min_hyst_db: float = 0.0          # entry margin over the selection threshold
    diff_hyst_db: float = 3.0         # margin a challenger needs over the held reference
    tx_thresh_ooc_dbm: float = -110.0  # below this reference strength a UE extends sync itself
    selection_rsrp_threshold_dbm: float = -105.0
    ssb_period_slots: int = 16

    def __post_init__(self):
        if self.min_hyst_db < 0 or self.diff_hyst_db < 0:
            raise ValueError("hysteresis values must be >= 0")
        if self.ssb_period_slots < 1:
            raise ValueError("ssb_period_slots must be >= 1")


class SyncSourceKind(Enum):
    GNSS = "gnss"
    GNODE_B = "gnode_b"
    SYNC_REF_UE = "sync_ref_ue"
    INTERNAL_CLOCK = "internal_clock"


@dataclass(slots=True)
class SyncCandidate:
    slss: SlssIdentity
    rsrp_dbm: float
    received_slot: int
    sender_id: int = -1  # ground truth for metrics, never used in ranking


@dataclass
class SsbBurst:
    """PSBCH payload: what a SyncRef puts on air each period."""

    slss: SlssIdentity
    mib: MibSl
    auth_tag: str | None = None  # hex, present when sync signing is on


@dataclass
class SyncState:
    source: SyncSourceKind = SyncSourceKind.INTERNAL_CLOCK
    reference: SyncCandidate | None = None  # set iff source is SYNC_REF_UE
    own_slss: SlssIdentity | None = None
    network_sync_ref: bool = False  # configured to transmit S-SSB unconditionally


def tier(slss: SlssIdentity) -> int:
    """Priority rank, lower is better."""
    if slss.slss_id == 0:
        return 0
    if slss.slss_id <= 335:
        return 1 if slss.in_coverage else 2
    return 3 if slss.in_coverage else 4


@dataclass
class SyncDecision:
    action: str  # "keep" | "switch" | "internal_clock"
    candidate: SyncCandidate | None = None


def select_sync_ref(
    current: SyncCandidate | None,
    cands: Iterable[SyncCandidate],
    cfg: SyncConfig,
) -> SyncDecision:
    """Hold, switch, or lapse to internal clock given fresh candidates.

    current is the held SyncRef UE candidate, None when the UE is on its
    internal clock. Primary sources (GNSS, gNodeB) are handled upstream
    and never reach this selector.

    A candidate is usable at or above the selection threshold, and on
    first lock at or above the threshold plus the entry margin. The best
    usable one, by (tier, higher power, lower id), is found in one pass;
    of two that tie on all three, the first in `cands` wins.
    """
    floor = cfg.selection_rsrp_threshold_dbm
    if current is None:
        floor += cfg.min_hyst_db
    best = None
    best_tier, best_rsrp, best_id = 5, 0.0, 0  # tier 5: below every candidate
    for cand in cands:
        rsrp = cand.rsrp_dbm
        if rsrp >= floor:
            slss = cand.slss
            sid = slss.slss_id
            # `tier`, inline
            rank = (0 if sid == 0 else (1 if slss.in_coverage else 2) if sid <= 335
                    else 3 if slss.in_coverage else 4)
            if rank < best_tier or rank == best_tier and (
                    rsrp > best_rsrp or rsrp == best_rsrp and sid < best_id):
                best, best_tier, best_rsrp, best_id = cand, rank, rsrp, sid
    if best is None:
        return SyncDecision("internal_clock")
    if current is None:
        return SyncDecision("switch", best)
    held_tier = tier(current.slss)
    same_id = best_id == current.slss.slss_id
    if best_tier < held_tier or (
        best_tier == held_tier and not same_id
        and best_rsrp >= current.rsrp_dbm + cfg.diff_hyst_db
    ):
        return SyncDecision("switch", best)
    if same_id:
        # same reference heard again; track its latest measurement
        return SyncDecision("keep", best)
    return SyncDecision("keep", current)


def should_transmit_ssb(state: SyncState, measured_primary_rsrp: float | None,
                        cfg: SyncConfig) -> bool:
    """Whether this UE acts as a SyncRef this period.

    Network-configured SyncRefs always transmit. Everyone else extends
    the sync chain only when their reference is weak: measured strength
    strictly below the OOC transmit threshold (an absent reference
    counts as infinitely weak).
    """
    if state.network_sync_ref:
        return True
    if measured_primary_rsrp is None:
        return True
    return measured_primary_rsrp < cfg.tx_thresh_ooc_dbm


def derive_own_slss(
    source: SyncSourceKind,
    reference_slss: SlssIdentity | None,
    rng: random.Random,
    heard_ids: set[int] = frozenset(),
) -> SlssIdentity:
    """Identity this UE advertises if it transmits S-SSB.

    Direct GNSS keeps id 0 with the indicator set; second-level GNSS
    (synced to an id-0 SyncRef) keeps id 0 without it. A UE under a
    network or an in-coverage SyncRef picks from 1..335, everyone else
    from 336..671, avoiding ids currently heard when possible.
    """
    if source == SyncSourceKind.GNSS:
        return SlssIdentity(0, True)
    if source == SyncSourceKind.GNODE_B:
        return SlssIdentity(_draw_id(rng, 1, 335, heard_ids), True)
    if source == SyncSourceKind.SYNC_REF_UE:
        assert reference_slss is not None
        if reference_slss.slss_id == 0:
            return SlssIdentity(0, False)
        if 1 <= reference_slss.slss_id <= 335:
            return SlssIdentity(_draw_id(rng, 1, 335, heard_ids), False)
        return SlssIdentity(_draw_id(rng, 336, 671, heard_ids), False)
    return SlssIdentity(_draw_id(rng, 336, 671, heard_ids), False)


def _draw_id(rng: random.Random, lo: int, hi: int, avoid: set[int]) -> int:
    for _ in range(16):
        pick = rng.randint(lo, hi)
        if pick not in avoid:
            return pick
    return rng.randint(lo, hi)  # range nearly saturated; accept a clash


@dataclass
class CandidateBuffer:
    """One live entry per SLSS id, pruned by age.

    Two senders sharing an id are indistinguishable on air (same sync
    sequence); the receiver locks onto the stronger instance, so a
    fresh weaker burst never evicts a fresh stronger one.

    `changes` counts only the edits a ranking can see: a noted candidate
    that is stored, unless it repeats the entry it replaces (the same
    identity, power and sender: an S-SSB heard again on an unshadowed
    channel), and an aged-out entry that `prune` drops. A repeat still
    stores its newer slot, so `expiry` moves. While the count stands
    still a ranking reads the same candidates, so a selector that ranked
    them needs to rank again only once the count has moved.
    """

    retention_slots: int
    entries: dict[int, SyncCandidate] = field(default_factory=dict, init=False)
    changes: int = field(default=0, init=False)
    # the oldest entry's slot, math.inf while empty
    _oldest: float = field(default=math.inf, init=False, repr=False, compare=False)

    def note(self, cand: SyncCandidate) -> bool:
        """Store the candidate unless a fresh stronger one holds its id;
        True if a ranking can see the change (`changes` moved)."""
        sid, slot = cand.slss.slss_id, cand.received_slot
        held = self.entries.get(sid)
        if (
            held is None
            or held.received_slot < slot - self.retention_slots
            or cand.rsrp_dbm >= held.rsrp_dbm
        ):
            self.entries[sid] = cand
            changed = (held is None or cand.rsrp_dbm != held.rsrp_dbm
                       or cand.sender_id != held.sender_id or cand.slss != held.slss)
            if changed:
                self.changes += 1
            if slot < self._oldest:
                self._oldest = slot
            elif held is not None and held.received_slot == self._oldest < slot:
                # the replaced entry may have been the only one that old
                self._oldest = min(c.received_slot for c in self.entries.values())
            return changed
        return False

    def expiry(self) -> int | None:
        """First slot in which `prune` drops an entry; None when empty."""
        if not self.entries:
            return None
        return self._oldest + self.retention_slots + 1

    def prune(self, now: int):
        """Drop the entries heard before `now - retention_slots`; the
        entries are scanned only once the oldest has aged out."""
        floor = now - self.retention_slots
        if self._oldest >= floor:
            return
        stale = [sid for sid, c in self.entries.items() if c.received_slot < floor]
        for sid in stale:
            del self.entries[sid]
        self.changes += len(stale)
        self._oldest = min((c.received_slot for c in self.entries.values()),
                           default=math.inf)
