"""Abstract propagation connecting the UEs.

Time is an integer slot counter. Power is dBm end to end; path loss is
log-distance with optional seeded Gaussian shadowing. A transmission's
payload class names its physical channel: `SsbBurst` rides PSBCH,
`ControlBurst` PSCCH, `DataBurst` and `Pc5Message` PSSCH, and
`FeedbackBurst` PSFCH. Collisions use a capture model among the
overlapping transmissions with a subchannel span: of two such same-slot
transmissions, the stronger survives only if it exceeds the weaker by at
least the capture threshold, otherwise both are destroyed. The world
gives a span only to data bursts, on their grant's subchannels; control,
sync, feedback and PC5 bursts carry none, so none of them is destroyed.
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import chain
from dataclasses import dataclass
from collections.abc import Collection
from typing import Any

# 2 pi as `random.Random.gauss` computes it
TWOPI = 2.0 * math.pi


def spare_normal(u1: float, u2: float) -> float:
    """The spare value `random.Random.gauss` keeps from its uniform draws."""
    return math.sin(u1 * TWOPI) * math.sqrt(-2.0 * math.log(1.0 - u2))


@dataclass
class ChannelModel:
    reference_loss_db: float = 46.7
    path_loss_exponent: float = 2.7
    noise_floor_dbm: float = -110.0
    shadowing_sigma_db: float = 0.0
    capture_threshold_db: float = 3.0
    tb_error_rate: float = 0.0

    def __post_init__(self):
        if self.path_loss_exponent < 2:
            raise ValueError(f"path loss exponent {self.path_loss_exponent} below 2")
        if self.shadowing_sigma_db < 0:
            raise ValueError(f"shadowing_sigma_db {self.shadowing_sigma_db} below 0")
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


# a sender's receivers, in `positions` order, and the path loss to each
PathLossRow = tuple[tuple[int, ...], array]


def path_loss_row(sender: int, positions: dict[int, tuple[float, float]],
                  model: ChannelModel) -> PathLossRow:
    """Receivers of `sender` in `positions` order, and the path loss to each."""
    slope = 10.0 * model.path_loss_exponent
    log10, hypot = math.log10, math.hypot
    sx, sy = positions[sender]
    receivers = tuple(uid for uid in positions if uid != sender)
    # co-location guard: log10 has no value at zero distance
    losses = array("d", [slope * log10(max(hypot(rx - sx, ry - sy), 1e-3))
                         for rx, ry in map(positions.__getitem__, receivers)])
    return receivers, losses


def deliver(
    transmissions: list[Transmission],
    positions: dict[int, tuple[float, float]],
    model: ChannelModel,
    rng: random.Random,
    losses: dict[int, PathLossRow] | None = None,
    readers: list[Collection[int] | None] | None = None,
    sensed: Collection[int] = (),
) -> tuple[dict[int, list[Reception]], list[CollisionRecord], dict[int, dict[int, float]]]:
    """Propagate one slot's transmissions to every other node.

    Returns receptions per receiver, with a key for every node: plain
    `(transmission, rsrp_dbm)` pairs in transmission order. Also returns
    the collision records for destroyed receptions, in `positions`
    order; a record names each destroyed transmission by its index in
    `transmissions`. Last, a row per index in `sensed`, in that order:
    node -> level, for the nodes that kept it, in `positions` order.

    `readers`, one entry per transmission, names the nodes that read
    it; None (for the list or an entry) means every node. A node
    outside a transmission's readers gets no reception of it, but a
    sensed transmission, or one in a capture contest, is levelled for
    every node, so rows and collision records do not depend on readers.

    `losses` caches one `path_loss_row` per sender; a missing row is
    built on that sender's first transmission. The caller owns the
    cache and must clear it whenever a node moves; without one, rows
    last for this call. Shadowing is drawn once per (transmission,
    receiver) pair, transmissions in order and receivers in
    `positions` order, so runs stay reproducible, whoever reads them.
    The draw is `rng.gauss(0.0, sigma)` inlined: the same Box-Muller
    pair, with the spare value read from and handed back to
    `rng.gauss_next`. A pair nobody reads makes only its `rng.random()`
    calls; the spare value of a pair it opens is computed from those
    two draws only once a reader, or the hand-back, needs it.

    Whether two transmissions overlap does not depend on the receiver,
    so the capture contest is found once per slot: the overlapping
    pairs among the transmissions with a subchannel span. A slot without
    one keeps no levels for it; otherwise each receiver judges only the
    pairs it heard both halves of.
    """
    # log-distance path loss, no fading: a level is
    # (tx_power - reference_loss) - 10 * exponent * log10(distance), in that
    # operation order, with the model constants hoisted
    ref_loss = model.reference_loss_db
    sigma = model.shadowing_sigma_db
    floor = model.noise_floor_dbm
    if losses is None:
        losses = {}
    grid = [(k, tx) for k, tx in enumerate(transmissions)
            if tx.subchannel_range is not None]
    pairs = [(i, j) for n, (i, a) in enumerate(grid) for j, b in grid[n + 1:]
             if a.overlaps(b)]
    # receiver -> level, for each transmission sensed or in a contest
    heard: dict[int, dict[int, float]] = {k: {} for k in [*sensed, *chain(*pairs)]}
    rand, log, sqrt, cos, sin = rng.random, math.log, math.sqrt, math.cos, math.sin
    # the spare value of a half-used Box-Muller pair: a float, or the
    # pair's two uniform draws while nobody has read its value
    spare = rng.gauss_next
    raw: dict[int, list[Reception]] = {uid: [] for uid in positions}
    try:
        for k, tx in enumerate(transmissions):
            sender = tx.sender_id
            row = losses.get(sender)
            if row is None:
                row = losses[sender] = path_loss_row(sender, positions, model)
            base = tx.tx_power_dbm - ref_loss
            levels = heard.get(k)
            reads = None if readers is None else readers[k]
            # a pair outside `reads` is skipped, unless the transmission is sensed
            # or in a contest: that levels every pair, but only readers get it
            skip, keep = (reads, None) if levels is None else (None, reads)
            for uid, loss in zip(*row):
                if skip is not None and uid not in skip:
                    if sigma > 0:
                        spare = (rand(), rand()) if spare is None else None
                    continue
                level = base - loss
                if sigma > 0:
                    z, spare = spare, None
                    if z is None:
                        x2pi = rand() * TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - rand()))
                        z = cos(x2pi) * g2rad
                        spare = sin(x2pi) * g2rad
                    elif z.__class__ is tuple:
                        z = spare_normal(*z)
                    level += 0.0 + z * sigma
                if level > floor:
                    if keep is None or uid in keep:
                        raw[uid].append((tx, level))
                    if levels is not None:
                        levels[uid] = level
    finally:
        if spare.__class__ is tuple:
            spare = spare_normal(*spare)
        rng.gauss_next = spare

    collisions: list[CollisionRecord] = []
    rows = {k: heard[k] for k in sensed}
    if not pairs:
        return raw, collisions, rows
    threshold = model.capture_threshold_db
    for uid in raw:
        destroyed: set[int] = set()
        for i, j in pairs:
            a, b = heard[i].get(uid), heard[j].get(uid)
            if a is None or b is None:
                continue
            # the later transmission is the weak one only if strictly weaker
            weak, strong = (j, i) if b < a else (i, j)
            destroyed.add(weak)
            if abs(b - a) < threshold:
                destroyed.add(strong)
        if destroyed:
            collisions.append(CollisionRecord(uid, tuple(sorted(destroyed))))
            gone = {id(transmissions[k]) for k in destroyed}
            raw[uid] = [r for r in raw[uid] if id(r[0]) not in gone]
            for k in destroyed:
                del heard[k][uid]
    return raw, collisions, rows


def child_rng(seed: int, label: str) -> random.Random:
    """Independent deterministic stream for one component of a run."""
    return random.Random(f"{seed}:{label}")
