"""Propagation, capture, collisions, and seeded reproducibility."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sidelinksim.harq import DataBurst, FeedbackBurst
from sidelinksim.frames import BitString, Pc5Message, Pc5MessageKind
from sidelinksim.radio import (
    CAPTURE_THRESHOLD_DB,
    MAX_SHADOWING_SIGMA_DB,
    NOISE_FLOOR_DBM,
    PATH_LOSS_EXPONENT,
    REFERENCE_LOSS_DB,
    SURE_SIGMAS,
    TWOPI,
    ChannelModel,
    CollisionRecord,
    LazyRow,
    Shadowing,
    Transmission,
    child_rng,
    deliver,
    path_loss_row,
)
from sidelinksim.resources import ControlBurst
from sidelinksim.sync import SsbBurst
from sidelinksim.frames import MibSl, SlssIdentity

MODEL = ChannelModel()
BITS = BitString(b"", 0)


def reference_rsrp_at(tx_power_dbm: float, distance_m: float) -> float:
    """Received power from log-distance path loss, no fading: the level
    `deliver` computes, before shadowing, with its constants inlined."""
    if distance_m <= 0:
        raise ValueError(f"distance {distance_m} must be positive")
    return (
        tx_power_dbm
        - REFERENCE_LOSS_DB
        - 10.0 * PATH_LOSS_EXPONENT * math.log10(distance_m)
    )


def data_tx(sender, span, power=23.0, tb=1):
    burst = DataBurst(BITS, BITS, mac_src_l2=sender, mac_dst_l2=0xFFFFFF,
                      tb_id=tb, size_bytes=300)
    return Transmission(sender, power, burst, span)


def test_rsrp_known_value():
    # 23 dBm at 100 m: 23 - 46.7 - 27*log10(100) = -77.7
    assert reference_rsrp_at(23.0, 100.0) == pytest.approx(-77.7)
    with pytest.raises(ValueError):
        reference_rsrp_at(23.0, 0.0)


def test_rsrp_monotone_in_distance():
    rng = random.Random(7)
    for _ in range(100):
        d1 = rng.uniform(1, 500)
        d2 = d1 + rng.uniform(0.1, 500)
        assert reference_rsrp_at(23.0, d1) > reference_rsrp_at(23.0, d2)


def test_deliver_drops_below_noise_floor():
    # 23 dBm at 2 km is ~ -112.8 dBm, under the -110 floor
    tx = data_tx(1, (0, 1))
    recs, _, _ = deliver([tx], {1: (0, 0), 2: (2000, 0)}, MODEL, random.Random(0))
    assert recs[2] == []


def test_deliver_skips_sender_itself():
    tx = data_tx(1, (0, 1))
    recs, _, _ = deliver([tx], {1: (0, 0), 2: (50, 0)}, MODEL, random.Random(0))
    assert len(recs[2]) == 1
    assert recs[1] == []


def test_overlapping_equal_power_bursts_destroy_each_other():
    a = data_tx(1, (0, 2), tb=1)
    b = data_tx(2, (1, 2), tb=2)
    positions = {1: (0, 50), 2: (0, -50), 3: (0, 0)}  # equidistant receiver
    recs, collisions, _ = deliver([a, b], positions, MODEL, random.Random(0))
    assert recs[3] == []
    assert len(collisions) == 1
    assert collisions[0].receiver_id == 3
    assert set(collisions[0].destroyed) == {0, 1}


def test_capture_lets_much_stronger_burst_through():
    a = data_tx(1, (0, 1), power=33.0, tb=1)
    b = data_tx(2, (0, 1), power=23.0, tb=2)
    positions = {1: (0, 50), 2: (0, -50), 3: (0, 0)}
    recs, collisions, _ = deliver([a, b], positions, MODEL, random.Random(0))
    assert [tx for tx, _ in recs[3]] == [a]
    assert collisions[0].destroyed == (1,)


def test_disjoint_subchannels_do_not_collide():
    a = data_tx(1, (0, 1), tb=1)
    b = data_tx(2, (2, 2), tb=2)
    recs, collisions, _ = deliver([a, b], {1: (0, 50), 2: (0, -50), 3: (0, 0)},
                               MODEL, random.Random(0))
    assert len(recs[3]) == 2
    assert collisions == []


def test_control_plane_never_collides_with_data():
    # only a subchannel span enters the capture contest: six bursts at
    # equal power and distance from node 5, and none of them is lost
    mib = MibSl(0, True, 0, 0)
    ssb = Transmission(1, 23.0, SsbBurst(SlssIdentity(0, True), mib))
    fb = Transmission(2, 23.0, FeedbackBurst(True, 0, src_l2=2, dst_l2=3))
    data = data_tx(4, (0, 4))
    control = Transmission(6, 23.0, ControlBurst(BITS))
    reject = Pc5Message(Pc5MessageKind.ESTABLISHMENT_REJECT, 7, 3, 0, {})
    pc5 = Transmission(7, 23.0, reject)
    recs, collisions, _ = deliver([ssb, fb, data, control, pc5],
                               {1: (0, 30), 2: (30, 0), 3: (0, -30), 4: (-30, 0),
                                5: (0, 0), 6: (18, 24), 7: (-18, -24)},
                               MODEL, random.Random(0))
    assert collisions == []
    assert [tx for tx, _ in recs[5]] == [ssb, fb, data, control, pc5]


def test_shadowing_is_reproducible():
    model = ChannelModel(shadowing_sigma_db=4.0)
    txs = [data_tx(1, (0, 1))]
    positions = {1: (0, 0), 2: (80, 0)}
    r1, _, _ = deliver(list(txs), positions, model, random.Random(11))
    r2, _, _ = deliver(list(txs), positions, model, random.Random(11))
    assert r1[2][0][1] == r2[2][0][1]
    r3, _, _ = deliver(list(txs), positions, model, random.Random(12))
    assert r3[2][0][1] != r1[2][0][1]


def test_shadowing_draws_match_random_gauss():
    sigma = 4.0
    model = ChannelModel(shadowing_sigma_db=sigma)
    # within 100 m of each other: every level clears the noise floor
    positions = {1: (0.0, 0.0), 2: (40.0, 10.0), 3: (-70.0, 25.0), 4: (15.0, -90.0)}
    rng, reference = random.Random(5), random.Random(5)
    # 1, 3 and 5 feedback bursts (no capture contest), 3 receivers each: odd
    # pair counts, so the spare Box-Muller value carries across the calls
    for count in (1, 3, 5):
        txs = [Transmission(1 + i % 4, 23.0 - i, FeedbackBurst(True, 0, src_l2=1, dst_l2=2))
               for i in range(count)]
        recs, _, _ = deliver(txs, positions, model, rng)
        heard = {(uid, id(tx)): rsrp for uid, rs in recs.items() for tx, rsrp in rs}
        assert len(heard) == 3 * count
        for tx in txs:  # draws go transmission by transmission, receivers in order
            sx, sy = positions[tx.sender_id]
            for uid, (rx, ry) in positions.items():
                if uid != tx.sender_id:
                    level = reference_rsrp_at(tx.tx_power_dbm, math.hypot(rx - sx, ry - sy))
                    assert heard[uid, id(tx)] == level + reference.gauss(0.0, sigma)
    assert rng.getstate() == reference.getstate()


def test_child_rng_streams_are_independent():
    a = child_rng(1234, "alpha")
    b = child_rng(1234, "beta")
    a2 = child_rng(1234, "alpha")
    seq_a = [a.random() for _ in range(5)]
    assert [a2.random() for _ in range(5)] == seq_a
    assert [b.random() for _ in range(5)] != seq_a


# -- one busy slot, pinned -------------------------------------------------


def busy_slot():
    """20 nodes and 30 same-slot transmissions on all four channels: data
    and control bursts on overlapping subchannel spans, sync and feedback
    bursts beside them. Sixteen nodes share a cluster where weak senders
    fall below the noise floor at the far side; two remote pairs hear
    nothing from the cluster, so some receivers hold fewer than two data bursts."""
    rng = random.Random(2024)
    positions = {uid: (round(rng.uniform(-400, 400), 1), round(rng.uniform(-400, 400), 1))
                 for uid in range(1, 17)}
    # two remote pairs: each hears its partner at most
    positions.update({17: (5000.0, 0.0), 18: (5060.0, 0.0),
                      19: (0.0, -5000.0), 20: (0.0, -5030.5)})
    mib = MibSl(0, True, 0, 0)
    txs = []
    for i in range(30):
        sender = rng.randint(1, 20)
        power = rng.choice((10.0, 23.0, 23.0, 33.0))
        kind = i % 5
        if kind in (0, 1):
            tx = data_tx(sender, (rng.randrange(12), rng.randint(1, 3)), power, tb=i)
        elif kind == 2:
            tx = Transmission(sender, power, ControlBurst(BITS),
                              (rng.randrange(12), rng.randint(1, 2)))
        elif kind == 3:
            tx = Transmission(sender, power,
                              SsbBurst(SlssIdentity(rng.randint(0, 671), True), mib))
        else:
            tx = Transmission(sender, power, FeedbackBurst(True, 0, src_l2=sender, dst_l2=1))
        txs.append(tx)
    return txs, positions


# sha256 of the (receiver, transmission number, rsrp repr) lines and of the
# (receiver, slot 7, destroyed numbers) collision lines; transmissions are
# numbered from 1 in list order
BUSY_SLOT_RECEPTIONS = "d8c474b47b35830444d3f55a610e03157b8c0a72b8508110a4f66e8813e5db31"
BUSY_SLOT_COLLISIONS = "1e6f53e83cd20159a7c38282b4187bccccb7dd6b8545ed9542990a5ad41fe8d5"


def test_busy_slot_receptions_and_collisions_are_pinned():
    txs, positions = busy_slot()
    recs, collisions, _ = deliver(txs, positions, ChannelModel(shadowing_sigma_db=4.0),
                               random.Random(99))
    assert list(recs) == list(positions)
    number = {id(tx): k + 1 for k, tx in enumerate(txs)}
    heard = "".join(f"{uid} {number[id(tx)]} {rsrp!r}\n"
                    for uid, rs in recs.items() for tx, rsrp in rs)
    lost = "".join(f"{c.receiver_id} 7 {tuple(k + 1 for k in c.destroyed)}\n"
                   for c in collisions)
    assert 100 < heard.count("\n") < 20 * 30 and lost.count("\n") > 5
    assert hashlib.sha256(heard.encode()).hexdigest() == BUSY_SLOT_RECEPTIONS
    assert hashlib.sha256(lost.encode()).hexdigest() == BUSY_SLOT_COLLISIONS


def test_deliver_level_is_rsrp_at_without_shadowing():
    txs, positions = busy_slot()
    recs, _, _ = deliver(txs, positions, MODEL, random.Random(0))
    for uid, rs in recs.items():
        rx, ry = positions[uid]
        for tx, rsrp in rs:
            sx, sy = positions[tx.sender_id]
            distance = max(math.hypot(rx - sx, ry - sy), 1e-3)
            assert rsrp == reference_rsrp_at(tx.tx_power_dbm, distance)


# -- deliver against a per-receiver capture contest ----------------------------


def reference_deliver(transmissions, positions, model, rng, losses=None, sensed=()):
    """`deliver` as it was when each receiver ran its own capture contest
    over every pair of receptions with a subchannel span it heard; a
    transmission is known by its index in `transmissions`. The row of a
    sensed transmission is read off every node's kept receptions."""
    ref_loss = REFERENCE_LOSS_DB
    sigma = model.shadowing_sigma_db
    floor = NOISE_FLOOR_DBM
    if losses is None:
        losses = {}
    rand, log, sqrt, cos, sin = rng.random, math.log, math.sqrt, math.cos, math.sin
    spare = rng.gauss_next
    raw = {uid: [] for uid in positions}  # (index, transmission, level)
    contested = {}  # receptions with a subchannel span, per receiver
    try:
        for k, tx in enumerate(transmissions):
            sender = tx.sender_id
            row = losses.get(sender)
            if row is None:
                row = losses[sender] = path_loss_row(sender, positions)
            base = tx.tx_power_dbm - ref_loss
            grid = tx.subchannel_range is not None
            for uid, loss in zip(row.receivers, row.losses):
                level = base - loss
                if sigma > 0:
                    z, spare = spare, None
                    if z is None:
                        x2pi = rand() * TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - rand()))
                        z = cos(x2pi) * g2rad
                        spare = sin(x2pi) * g2rad
                    level += 0.0 + z * sigma
                if level > floor:
                    rec = (k, tx, level)
                    raw[uid].append(rec)
                    if grid:
                        contested.setdefault(uid, []).append(rec)
    finally:
        rng.gauss_next = spare

    collisions = []
    for uid, recs in raw.items():
        grid_recs = contested.get(uid, ())
        if len(grid_recs) < 2:
            continue
        destroyed = set()
        for i, a in enumerate(grid_recs):
            for b in grid_recs[i + 1:]:
                if not a[1].overlaps(b[1]):
                    continue
                weak, strong = (b, a) if b[2] < a[2] else (a, b)
                destroyed.add(weak[0])
                if strong[2] - weak[2] < CAPTURE_THRESHOLD_DB:
                    destroyed.add(strong[0])
        if destroyed:
            collisions.append(CollisionRecord(uid, tuple(sorted(destroyed))))
            raw[uid] = [r for r in recs if r[0] not in destroyed]
    rows = {k: {} for k in sensed}
    for uid, recs in raw.items():
        for k, _, level in recs:
            if k in rows:
                rows[k][uid] = level
    recs = {uid: [(tx, level) for _, tx, level in recs] for uid, recs in raw.items()}
    return recs, collisions, rows


def row_items(rows, collisions, nodes, order):
    """Rows as comparable lists, each read through `get` for every node in
    `nodes` in an order shuffled by `order`, after checking that no
    destroyed pair is in one."""
    for c in collisions:
        for k in c.destroyed:
            if k in rows:
                assert rows[k].get(c.receiver_id) is None
    items = []
    for k, row in rows.items():
        shuffled = list(nodes)
        order.shuffle(shuffled)
        items.append((k, sorted((uid, row.get(uid)) for uid in shuffled)))
    return items


@st.composite
def slots(draw):
    """One slot: 2-10 nodes on a grid of 1, 100 or 700 m (equal distances
    are common; on the coarse grids some pairs land near the noise floor
    and some far below it), 1-8 transmissions, most over few subchannels
    and some without a subchannel span. Powers 3 dB apart meet the
    capture threshold exactly."""
    uids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=10, unique=True))
    scale = draw(st.sampled_from((100.0, 100.0, 1.0, 700.0)))
    coord = st.integers(-8, 8).map(lambda c: scale * c)
    positions = {uid: (draw(coord), draw(coord)) for uid in uids}
    txs = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.integers(-1, 4))
        span = None if start < 0 else (start, draw(st.integers(1, 3)))
        # few senders and powers, so equal levels at a receiver are common
        txs.append(Transmission(draw(st.sampled_from(uids[:3])),
                                draw(st.sampled_from((20.0, 23.0, 26.0))), None, span))
    return txs, positions


# shadowing: none, usual, subnormal (every draw rounds to a few units of
# the smallest double) and the largest a scenario may set
SIGMAS = (0.0, 0.0, 2.0, 4.0, 5e-324, MAX_SHADOWING_SIGMA_DB)


def run_twice(fn, txs, positions, model, seed, warm, **kwargs):
    """Two slots of `fn` on one generator: the first slot's results, its
    rows read once after each slot, and the generator's end state."""
    rng = random.Random(seed)
    if warm:  # leave a spare Box-Muller value for the first draw
        rng.gauss(0.0, 1.0)
    recs, collisions, rows = fn(txs, positions, model, rng, **kwargs)
    nodes = [*positions, 99]  # and a node that is no receiver
    order = random.Random(seed + 1)
    first = row_items(rows, collisions, nodes, order)
    fn(txs[::-1], positions, model, rng, **kwargs)  # rows outlive their slot
    assert row_items(rows, collisions, nodes, order) == first
    return recs, collisions, first, rng.getstate(), rng.gauss_next


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(slot=slots(), sigma=st.sampled_from(SIGMAS), seed=st.integers(0, 2**16),
       warm=st.booleans(), sensed=st.sets(st.integers(0, 7)))
def test_deliver_matches_per_receiver_contest(slot, sigma, seed, warm, sensed):
    txs, positions = slot
    sensed = sorted(k for k in sensed if k < len(txs))
    index = {id(tx): k for k, tx in enumerate(txs)}
    model = ChannelModel(shadowing_sigma_db=sigma)
    results = []
    for fn in (deliver, reference_deliver):
        recs, collisions, rows, state, spare = run_twice(fn, txs, positions, model, seed, warm,
                                                         sensed=sensed)
        results.append((
            [(uid, [(index[id(tx)], rsrp) for tx, rsrp in rs]) for uid, rs in recs.items()],
            [(c.receiver_id, c.destroyed) for c in collisions],
            rows,
            state,
            spare,
        ))
    assert results[0] == results[1]


# -- deliver to named readers -----------------------------------------------------


@st.composite
def read_slots(draw):
    """A slot from `slots()` and, per transmission, every node or a random
    set of its readers, the sender and unknown ids included."""
    txs, positions = draw(slots())
    uids = sorted(positions)
    readers = [draw(st.one_of(st.just(set(uids)), st.sets(st.sampled_from(uids + [99]))))
               for _ in txs]
    return txs, positions, readers


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(slot=read_slots(), sigma=st.sampled_from(SIGMAS), seed=st.integers(0, 2**16),
       warm=st.booleans(), sensed=st.sets(st.integers(0, 7)), rowed=st.sets(st.integers(0, 7)))
def test_deliver_to_readers_matches_all_pairs(slot, sigma, seed, warm, sensed, rowed):
    """Each node gets the all-pairs receptions of what it reads, the
    collision records and the rows of sensed and rowed transmissions are
    the all-pairs ones, whenever they are read, and the generator ends in
    the same state (`gauss_next` included): unread pairs still draw. A
    rowed transmission's row is a dict, whoever reads it."""
    txs, positions, readers = slot
    sensed = sorted(k for k in sensed if k < len(txs))
    rowed = sorted(k for k in rowed if k < len(txs) and k not in sensed)
    index = {id(tx): k for k, tx in enumerate(txs)}
    model = ChannelModel(shadowing_sigma_db=sigma)
    results = []
    for fn in (deliver, reference_deliver):
        kwargs = {"sensed": sensed + rowed}
        if fn is deliver:
            kwargs = {"readers": readers, "sensed": sensed, "rowed": rowed}
            eager = fn(txs, positions, model, random.Random(seed), **kwargs)[2]
            assert all(type(eager[k]) is dict for k in rowed)
        recs, collisions, rows, state, spare = run_twice(fn, txs, positions, model, seed, warm,
                                                         **kwargs)
        if fn is reference_deliver:
            recs = {uid: [(tx, rsrp) for tx, rsrp in rs
                          if uid in readers[index[id(tx)]]]
                    for uid, rs in recs.items()}
        results.append((
            [(uid, [(index[id(tx)], rsrp) for tx, rsrp in rs]) for uid, rs in recs.items()],
            [(c.receiver_id, c.destroyed) for c in collisions],
            rows,
            state,
            spare,
        ))
    assert results[0] == results[1]


# -- the premises of one bulk draw per slot ------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 8, 99, 1000])
@pytest.mark.parametrize("warm", [False, True])
def test_getrandbits_words_rebuild_random_draws(n, warm):
    """`getrandbits(64 * n)` advances the generator exactly as n `random()`
    calls, and its 32-bit words, low first, rebuild each value; the steps
    a `Shadowing` keeps are those values in units of 2**-53, and its
    `normals` are its `normal` draws, from every pair on."""
    for seed in range(20):
        bulk, single = random.Random(seed), random.Random(seed)
        if warm:
            for rng in (bulk, single):
                rng.random()
                rng.gauss(0.0, 1.0)  # leaves a spare in gauss_next
        bits = bulk.getrandbits(64 * n)
        words = [(bits >> 32 * k) & 0xFFFFFFFF for k in range(2 * n)]
        rebuilt = [((words[2 * k] >> 5) * 2.0 ** 26 + (words[2 * k + 1] >> 6)) * 2.0 ** -53
                   for k in range(n)]
        assert rebuilt == [single.random() for _ in range(n)]
        assert bulk.getstate() == single.getstate()

        shadowing_rng, single = random.Random(seed), random.Random(seed)
        if warm:
            for rng in (shadowing_rng, single):
                rng.random()
                rng.gauss(0.0, 1.0)
        shadowing = Shadowing(shadowing_rng, 2 * n, 1.0)  # n Box-Muller pairs
        steps = shadowing.steps
        assert [step * 2.0 ** -53 for step in steps] == [single.random() for _ in range(2 * n)]
        assert shadowing_rng.getstate()[:2] == single.getstate()[:2]

        # both parities of start and end, after the carried spare (warm) or
        # not: every run of pairs for a few pairs, else runs of up to four
        draws = [shadowing.normal(q) for q in range(2 * n)]
        for p in range(2 * n + 1):
            for count in range(min(2 * n - p, 2 * n if n <= 8 else 4) + 1):
                assert shadowing.normals(p, count) == draws[p:p + count]


class FixedBits:
    """A generator stand-in whose `getrandbits` returns set words."""

    def __init__(self, words):
        self.words = words
        self.gauss_next = None

    def getrandbits(self, k):
        assert k == 64 * len(self.words)
        return sum(word << 64 * i for i, word in enumerate(self.words))


def test_no_normal_from_random_uniforms_exceeds_the_bound():
    """|z| <= sqrt(-2 ln 2**-53) < SURE_SIGMAS for every Box-Muller value
    built from `random()` uniforms: the largest u2 is 1 - 2**-53, and
    |cos| and |sin| are at most 1."""
    bound = math.sqrt(-2.0 * math.log(2.0 ** -53))
    assert 8.57 < bound < 8.572 < SURE_SIGMAS
    top = 0xFFFFFFFFFFFFFFFF  # both outputs all ones: u = 1 - 2**-53
    # u1 = 0, 1/4, 1/2, 3/4 and its largest value; u2 at its largest
    u1_words = [0, 1 << 30, 1 << 31, 3 << 30, top]
    words = [w for u1 in u1_words for w in (u1, top)]
    shadowing = Shadowing(FixedBits(words), 2 * len(u1_words), 1.0)
    assert shadowing.steps[1] == 2 ** 53 - 1 and shadowing.steps[2] == 2 ** 51
    normals = [shadowing.normal(p) for p in range(2 * len(u1_words))]
    assert max(map(abs, normals)) == bound == normals[0] == -normals[4]
    rng = random.Random(11)
    assert max(abs(rng.gauss(0.0, 1.0)) for _ in range(100_000)) < bound


@pytest.mark.parametrize("sigma", [0.0, 2.0, 5e-324, MAX_SHADOWING_SIGMA_DB])
def test_kept_bits_equal_the_or_over_kept_nodes(sigma):
    """A lazy row's ledger mask, from the sure bound, is the OR of the bits
    of the nodes whose `get` keeps a level: near the floor, far from it,
    and where levels overflow to +-inf or NaN (transmit power 1e308,
    nodes at +-1e308)."""
    rng = random.Random(3)
    positions = {uid: (rng.uniform(0.0, 3000.0), rng.uniform(0.0, 300.0)) for uid in range(30)}
    positions.update({30: (1e308, 0.0), 31: (-1e308, 0.0), 32: (0.0, 0.0), 33: (0.0, 0.0)})
    bits = {uid: 1 << uid for uid in positions}
    checked = 0
    model = ChannelModel(shadowing_sigma_db=sigma)
    cache = {}
    channel = random.Random(4)
    for _ in range(3):  # the memo in the path-loss cache, reused by later slots
        txs = [Transmission(sender, power, None)
               for sender in (0, 5, 30, 32) for power in (23.0, -40.0, 1e308)]
        _, _, rows = deliver(txs, positions, model, channel, cache,
                             readers=[()] * len(txs), sensed=range(len(txs)))
        for row in rows.values():
            assert isinstance(row, LazyRow)
            kept = [uid for uid in positions if row.get(uid) is not None]
            assert row.kept_bits(bits) == sum(bits[uid] for uid in kept)
            checked += 0 < len(kept) < len(positions) - 1
    assert checked > 0
