"""Abstract propagation connecting the UEs.

Time is an integer slot counter of 1 ms slots. Power is dBm end to end;
path loss is log-distance, its constants fixed, with optional seeded
Gaussian shadowing. A transmission's payload class names its physical
channel: `SsbBurst` rides PSBCH, `ControlBurst` PSCCH, `DataBurst` and
`Pc5Message` PSSCH, and `FeedbackBurst` PSFCH. Collisions use a capture
model among the overlapping transmissions with a subchannel span: of two
such same-slot transmissions, the stronger survives only if it exceeds
the weaker by at least the capture threshold, otherwise both are
destroyed. The world gives a span only to data bursts, on their grant's
subchannels; control, sync, feedback and PC5 bursts carry none, so none
of them is destroyed. `deliver` works a slot in three passes: a row of
levels per transmission, the capture contest on those rows, then each
reader's receptions read from them. A node's reception list is made on
its first reception; the nodes that hear nothing in a slot share one
empty list.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from itertools import chain
from dataclasses import dataclass
from collections.abc import Collection
from math import cos, log, sin, sqrt
from typing import Any

# 2 pi as `random.Random.gauss` computes it
TWOPI = 2.0 * math.pi
ULP = 2.0 ** -53  # the step of `random.Random.random`
TWOPI_ULP = TWOPI * ULP  # exact: a power-of-two rescale of TWOPI
TWO53 = 1 << 53
# the bits of a 64-bit word, little-endian, that `random()` keeps of its
# first 32-bit output (the top 27) and of its second (the top 26)
LOW_BITS = b"\xe0\xff\xff\xff\x00\x00\x00\x00"
HIGH_BITS = b"\x00\x00\x00\x00\xc0\xff\xff\xff"
# |z| <= sqrt(-2 ln 2**-53) ~ 8.5717 for a normal built from `random()`
# uniforms, so a level more than this many sigmas from the noise floor is
# on its side of the floor whatever its draw
SURE_SIGMAS = 9.0


REFERENCE_LOSS_DB = 46.7  # path loss at 1 m
PATH_LOSS_EXPONENT = 2.7
NOISE_FLOOR_DBM = -110.0  # a level at or below it is not received
CAPTURE_THRESHOLD_DB = 3.0  # the margin by which a colliding burst survives
# Selection backs off 3 dB at a time up to the strongest claim it must
# drop, so what sets a level is bounded; the 3GPP V2X channel models
# (TR 37.885) have single-digit-dB shadow fading
MAX_TX_POWER_DBM = 60.0
MAX_SHADOWING_SIGMA_DB = 20.0


@dataclass
class ChannelModel:
    shadowing_sigma_db: float = 0.0
    tb_error_rate: float = 0.0

    def __post_init__(self):
        if not 0 <= self.shadowing_sigma_db <= MAX_SHADOWING_SIGMA_DB:
            raise ValueError(f"shadowing_sigma_db {self.shadowing_sigma_db} "
                             f"outside [0, {MAX_SHADOWING_SIGMA_DB}]")
        if not 0 <= self.tb_error_rate <= 1:
            raise ValueError(f"tb_error_rate {self.tb_error_rate} outside [0, 1]")


@dataclass
class Transmission:
    sender_id: int
    tx_power_dbm: float
    payload: Any
    subchannel_range: tuple[int, int] | None = None  # (start, length)

    def __post_init__(self):
        if self.subchannel_range is not None:
            start, length = self.subchannel_range
            if start < 0 or length < 1:
                raise ValueError(f"bad subchannel range {self.subchannel_range}")

    def overlaps(self, other: "Transmission") -> bool:
        if self.subchannel_range is None or other.subchannel_range is None:
            return False
        a0, alen = self.subchannel_range
        b0, blen = other.subchannel_range
        return a0 < b0 + blen and b0 < a0 + alen


# what one node heard of one transmission: (transmission, rsrp_dbm)
Reception = tuple[Transmission, float]


@dataclass
class CollisionRecord:
    receiver_id: int
    destroyed: tuple[int, ...]  # indices into the slot's transmissions


class PathLossRow:
    """A sender's receivers, in `positions` order, the path loss to each,
    and each receiver's place among them."""

    __slots__ = ("receivers", "losses", "index", "kept")

    def __init__(self, receivers: tuple[int, ...], losses: array):
        self.receivers = receivers
        self.losses = losses
        self.index = dict(zip(receivers, range(len(receivers))))
        # power less reference loss -> `LazyRow.kept_bits` memo: (bits of the
        # receivers kept whatever their draw, receivers whose draw decides)
        self.kept: dict[float, tuple[int, tuple[int, ...]]] = {}


def path_loss_row(sender: int, positions: dict[int, tuple[float, float]]) -> PathLossRow:
    """Receivers of `sender` in `positions` order, and the path loss to each."""
    slope = 10.0 * PATH_LOSS_EXPONENT
    log10, hypot = math.log10, math.hypot
    sx, sy = positions[sender]
    receivers = tuple(uid for uid in positions if uid != sender)
    # co-location guard: log10 has no value at zero distance
    losses = array("d", [slope * log10(max(hypot(rx - sx, ry - sy), 1e-3))
                         for rx, ry in map(positions.__getitem__, receivers)])
    return PathLossRow(receivers, losses)


class Shadowing:
    """One slot's shadowing, drawn in one pass and worked out when read.

    Pair p is the slot's p-th (transmission, receiver) pair, transmissions
    in order and receivers in `positions` order. `normal(p)` is the value
    `rng.gauss(0.0, 1.0)` would return for it, were it called once per
    pair in that order: the same Box-Muller pairs, the spare value read
    from `rng.gauss_next` first and handed back at once. All the slot's
    uniforms come from one `rng.getrandbits` call, which advances the
    generator exactly as that many `rng.random()` calls. Each 64-bit word
    of it holds the two 32-bit outputs one `random()` combines, low half
    first; `steps` keeps each uniform as that combination, its integer
    count of 2**-53 steps.
    """

    __slots__ = ("sigma", "spare", "steps")
    # (words, LOW_BITS and HIGH_BITS over them) for the most words a slot
    # has drawn yet: the longer masks pick the same bits of a shorter draw
    masks = (0, 0, 0)

    def __init__(self, rng: random.Random, pairs: int, sigma: float):
        self.sigma = sigma
        self.spare = spare = rng.gauss_next
        fresh = pairs - (spare is not None)  # the pairs past the carried spare
        self.steps = steps = array("Q")
        if fresh > 0:
            count = 2 * ((fresh + 1) // 2)  # two uniforms per Box-Muller pair
            words = rng.getrandbits(64 * count)
            if count > Shadowing.masks[0]:
                Shadowing.masks = (count, int.from_bytes(LOW_BITS * count, "little"),
                                   int.from_bytes(HIGH_BITS * count, "little"))
            _, low, high = Shadowing.masks
            # per word, random()'s (low >> 5) * 2**26 + (high >> 6), for all words at once
            words = (words & low) << 21 | (words & high) >> 38
            steps.frombytes(words.to_bytes(8 * count, "little"))
            if sys.byteorder != "little":
                steps.byteswap()
        if pairs:
            rng.gauss_next = self.normal(pairs) if fresh & 1 else None

    def normal(self, p: int) -> float:
        """Pair `p`'s standard normal draw."""
        spare = self.spare
        if spare is not None:
            if not p:
                return spare
            p -= 1
        steps = self.steps
        x2pi = steps[p & -2] * TWOPI_ULP
        g2rad = sqrt(-2.0 * log((TWO53 - steps[p | 1]) * ULP))
        return (sin(x2pi) if p & 1 else cos(x2pi)) * g2rad

    def normals(self, p: int, n: int) -> list[float]:
        """The draws of pairs `p` to `p + n - 1`, as `normal` gives each."""
        out = []
        fresh = p - (self.spare is not None)  # p's place past the carried spare
        if fresh & 1:  # the carried spare (fresh -1) or a Box-Muller pair's second half
            out.append(self.normal(p))
            fresh += 1
        # whole Box-Muller pairs from `fresh` on, the last one's second half
        # cut if unread
        steps = self.steps[fresh:fresh + 2 * ((n - len(out) + 1) // 2)]
        x2pi = [u * TWOPI_ULP for u in steps[::2]]
        g2rad = [sqrt(-2.0 * log((TWO53 - u) * ULP)) for u in steps[1::2]]
        for x, g in zip(x2pi, g2rad):
            out.append(cos(x) * g)
            out.append(sin(x) * g)
        del out[n:]
        return out


class LazyRow:
    """A sensed transmission's row, each level worked out when read.

    `get(uid)` is the level node `uid` kept, or None for a level at or
    below the noise floor and for a node that is no receiver. It gives
    what an eager pass would have, whenever it is read: the row keeps its
    slot's `Shadowing` (None without shadowing), so it outlives the slot.
    """

    __slots__ = ("shadowing", "start", "base", "path_loss", "floor")

    def __init__(self, shadowing: Shadowing | None, start: int, base: float,
                 path_loss: PathLossRow, floor: float):
        self.shadowing = shadowing
        self.start = start  # pair number of the first receiver
        self.base = base  # power less reference loss
        self.path_loss = path_loss
        self.floor = floor

    def get(self, uid: int) -> float | None:
        row = self.path_loss
        i = row.index.get(uid)
        if i is None:
            return None
        level = self.base - row.losses[i]
        shadowing = self.shadowing
        if shadowing is not None:
            level += 0.0 + shadowing.normal(self.start + i) * shadowing.sigma
        return level if level > self.floor else None

    def kept_bits(self, bits: dict[int, int]) -> int:
        """The OR of `bits[uid]` over the nodes that keep their level.

        Shadowing moves a level by less than SURE_SIGMAS sigmas, so a node
        that far above the floor before shadowing keeps it whatever its
        draw, and one that far below loses it; only the nodes between are
        worked out. The rest is memoised in the path-loss row, per power,
        so `bits` must be one mapping for every row of a path-loss cache.
        """
        row, base = self.path_loss, self.base
        memo = row.kept.get(base)
        if memo is None:
            shadowing, floor = self.shadowing, self.floor
            margin = 0.0 if shadowing is None else SURE_SIGMAS * shadowing.sigma
            sure, near = 0, []
            for uid, loss in zip(row.receivers, row.losses):
                unshadowed = base - loss
                if unshadowed - margin > floor:
                    sure |= bits[uid]
                elif unshadowed + margin > floor:
                    near.append(uid)
            memo = row.kept[base] = (sure, tuple(near))
        mask, near = memo
        for uid in near:
            if self.get(uid) is not None:
                mask |= bits[uid]
        return mask


# what `deliver` returns per sensed transmission; read it through `get`
SensedRow = dict[int, float] | LazyRow


def deliver(
    transmissions: list[Transmission],
    positions: dict[int, tuple[float, float]],
    model: ChannelModel,
    rng: random.Random,
    losses: dict[int, PathLossRow] | None = None,
    readers: list[Collection[int]] | None = None,
    sensed: Collection[int] = (),
    rowed: Collection[int] = (),
) -> tuple[dict[int, list[Reception]], list[CollisionRecord], dict[int, SensedRow]]:
    """Propagate one slot's transmissions to every other node.

    Returns receptions per receiver, with a key for every node in
    `positions` order: plain `(transmission, rsrp_dbm)` pairs in
    transmission order. Every node that heard nothing shares one empty
    list, so the caller must treat the lists as read-only. Also returns
    the collision records for destroyed receptions, in `positions`
    order; a record names each destroyed transmission by its index in
    `transmissions`. Last, a row per index in `sensed` and then `rowed`,
    read through `row.get(node)`: the level the node kept, or None.

    `readers`, one entry per transmission, names the nodes that read
    it; None for the whole list means every node reads everything. A
    node outside a transmission's readers gets no reception of it; rows
    and collision records do not depend on readers. Every node reads a
    transmission in `rowed` from its row, a dict of every kept level;
    only its readers get receptions of it.

    `losses` caches one `path_loss_row` per sender; a missing row is
    built on that sender's first transmission. The caller owns the
    cache and must clear it whenever a node moves; without one, rows
    last for this call.

    Each slot draws the shadowing uniforms of every (transmission,
    receiver) pair at once, in pair order: transmissions in order,
    receivers in `positions` order (`Shadowing`), so runs stay
    reproducible whoever reads them. A pair's level is
    `base - loss + rng.gauss(0.0, sigma)`, as if `gauss` were called once
    per pair in that order. Three passes follow:

    1. Levels: one row per transmission. A transmission in a capture
       contest, rowed, or read by every node gets a dict of every kept
       level; any other gets a `LazyRow`, which computes a level on `get`.
    2. Capture contest: overlap does not depend on the receiver, so the
       contest is the overlapping pairs among the transmissions with a
       subchannel span, found once per slot. Each receiver judges the
       pairs it heard both halves of; a destroyed pair leaves its row.
    3. Receptions: each transmission's readers, or its whole row when
       every node reads it, read their levels from the row.
    """
    # log-distance path loss, no fading: a level is
    # (tx_power - reference_loss) - 10 * exponent * log10(distance), in that
    # operation order, with the model constants hoisted
    ref_loss = REFERENCE_LOSS_DB
    sigma = model.shadowing_sigma_db
    floor = NOISE_FLOOR_DBM
    if losses is None:
        losses = {}
    grid = [(k, tx) for k, tx in enumerate(transmissions)
            if tx.subchannel_range is not None]
    pairs = [(i, j) for n, (i, a) in enumerate(grid) for j, b in grid[n + 1:]
             if a.overlaps(b)]
    eager = set(chain(*pairs, rowed))
    # every sender is a node (`path_loss_row` looks it up), so each
    # transmission has one pair per other node
    shadowing = (Shadowing(rng, len(transmissions) * (len(positions) - 1), sigma)
                 if sigma > 0 else None)
    # levels: per transmission, a dict of every kept level or a `LazyRow`
    levels: list[SensedRow] = []
    start = 0  # pair number of the transmission's first receiver
    for k, tx in enumerate(transmissions):
        sender = tx.sender_id
        row = losses.get(sender)
        if row is None:
            row = losses[sender] = path_loss_row(sender, positions)
        base = tx.tx_power_dbm - ref_loss
        if k not in eager and readers is not None:
            levels.append(LazyRow(shadowing, start, base, row, floor))
        elif shadowing is None:
            levels.append({uid: level for uid, loss in zip(row.receivers, row.losses)
                           if (level := base - loss) > floor})
        else:
            normals = shadowing.normals(start, len(row.receivers))
            levels.append({uid: level for uid, loss, z in zip(row.receivers, row.losses, normals)
                           if (level := base - loss + (0.0 + z * sigma)) > floor})
        start += len(row.receivers)

    # the capture contest, on dict rows: a destroyed pair leaves its row
    collisions: list[CollisionRecord] = []
    threshold = CAPTURE_THRESHOLD_DB
    for uid in positions if pairs else ():
        destroyed: set[int] = set()
        for i, j in pairs:
            a, b = levels[i].get(uid), levels[j].get(uid)
            if a is None or b is None:
                continue
            # the later transmission is the weak one only if strictly weaker
            weak, strong = (j, i) if b < a else (i, j)
            destroyed.add(weak)
            if abs(b - a) < threshold:
                destroyed.add(strong)
        if destroyed:
            collisions.append(CollisionRecord(uid, tuple(sorted(destroyed))))
            for k in destroyed:
                del levels[k][uid]

    # receptions: silent nodes share `silent`; a node gets its own list on
    # its first reception
    silent: list[Reception] = []
    raw: dict[int, list[Reception]] = dict.fromkeys(positions, silent)
    for k, tx in enumerate(transmissions):
        row = levels[k]
        get = row.get
        for uid in row if readers is None else readers[k]:
            level = get(uid)
            if level is not None:
                recs = raw[uid]
                if recs is silent:
                    raw[uid] = [(tx, level)]
                else:
                    recs.append((tx, level))
    return raw, collisions, {k: levels[k] for k in chain(sensed, rowed)}


def child_rng(seed: int, label: str) -> random.Random:
    """Independent deterministic stream for one component of a run."""
    return random.Random(f"{seed}:{label}")
