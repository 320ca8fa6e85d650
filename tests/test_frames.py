"""Bit-level codec checks: fixed widths, round-trip identity, fixtures."""

import random

import pytest

from sidelinksim.bits import pack, unpack
from sidelinksim.frames import (
    PROTECTION,
    BitString,
    CastType,
    MibSl,
    Pc5Message,
    Pc5MessageKind,
    Sci1A,
    Sci2A,
    SecurityPhase,
    SlssIdentity,
    fra_decode,
    fra_encode,
    fra_value_count,
    fra_width,
)
from sidelinksim.resources import ResourcePool
from sidelinksim.sync import tier

POOL_4x10 = ResourcePool(4, 10, [100, 1000])
POOL_10x20 = ResourcePool(10, 20, [20, 50, 100, 1000])


def reference_mib_sl_decode(payload: BitString) -> MibSl:
    """The MIB-SL fields of a 32-bit payload. No receiver decodes the
    MIB-SL, so this decoder checks the encoder only, from the tests."""
    tdd_config, in_coverage, *rest = unpack(payload, MibSl.WIDTHS.values(), "MIB-SL")
    return MibSl(tdd_config, bool(in_coverage), *rest)


def test_bitstring_rejects_bad_padding():
    with pytest.raises(ValueError):
        BitString(b"\xff", 4)  # low pad bits must be zero
    BitString(b"\xf0", 4)  # ok


def test_pack_unpack_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        widths = [rng.randint(1, 24) for _ in range(rng.randint(1, 8))]
        values = [rng.getrandbits(w) for w in widths]
        # a width-0 field and a field at its maximum value ride along
        at = rng.randrange(len(widths) + 1)
        widths.insert(at, 0)
        values.insert(at, 0)
        widths.append(rng.randint(1, 24))
        values.append((1 << widths[-1]) - 1)
        bs = pack(zip(values, widths))
        assert bs.bit_length == sum(widths)
        assert unpack(bs, widths, "payload") == values
        # MSB first: the first field holds the top bits
        assert bs.to_int() >> (sum(widths) - widths[0]) == values[0]


@pytest.mark.parametrize("value,width", [(1 << 5, 5), (-1, 5), (1, 0), (0, -1), (3, -2)])
def test_pack_refuses_a_value_outside_its_width_and_a_negative_width(value, width):
    with pytest.raises(ValueError):
        pack([(1, 3), (value, width)])


def test_mib_sl_is_exactly_32_bits():
    mib = MibSl(tdd_config=0x0AB, in_coverage=True, direct_frame_number=517, slot_index=44)
    assert mib.encode().bit_length == 32


def test_mib_sl_round_trip():
    rng = random.Random(1)
    for _ in range(1000):
        mib = MibSl(
            tdd_config=rng.getrandbits(12),
            in_coverage=bool(rng.getrandbits(1)),
            direct_frame_number=rng.getrandbits(10),
            slot_index=rng.getrandbits(7),
            reserved=rng.getrandbits(2),
        )
        assert reference_mib_sl_decode(mib.encode()) == mib


def test_mib_sl_rejects_wrong_length():
    with pytest.raises(ValueError, match="^MIB-SL is 32 bits, got 24$"):
        reference_mib_sl_decode(BitString(b"\x00\x00\x00", 24))


def test_sci_2a_is_exactly_35_bits():
    sci = Sci2A(3, 1, 2, 0x5A, 0xBEEF, True, CastType.UNICAST)
    assert sci.encode().bit_length == 35


def test_sci_2a_round_trip():
    rng = random.Random(2)
    for _ in range(1000):
        sci = Sci2A(
            harq_process_id=rng.getrandbits(4),
            ndi=rng.getrandbits(1),
            rv=rng.getrandbits(2),
            source_id=rng.getrandbits(8),
            dest_id=rng.getrandbits(16),
            harq_enabled=bool(rng.getrandbits(1)),
            cast_type=CastType(rng.randrange(3)),
            csi_request=rng.getrandbits(1),
        )
        assert Sci2A.decode(sci.encode()) == sci


def test_sci_2a_for_tb_truncates_l2_ids():
    sci = Sci2A.for_tb(1, 0, 0,
                       src_l2=0xABCDEF, dst_l2=0x123456,
                       harq_enabled=True, cast_type=CastType.UNICAST)
    assert sci.source_id == 0xEF
    assert sci.dest_id == 0x3456


# frozen width anchors for the two reference pools
def test_sci_1a_width_anchors():
    assert sum(Sci1A.field_widths(POOL_4x10).values()) == 26
    assert sum(Sci1A.field_widths(POOL_10x20).values()) == 29


def test_sci_1a_round_trip_both_pools():
    rng = random.Random(3)
    for pool in (POOL_4x10, POOL_10x20):
        widths = Sci1A.field_widths(pool)
        for _ in range(500):
            sci = Sci1A(**{name: rng.getrandbits(w) for name, w in widths.items()})
            assert Sci1A.decode(pool, sci.encode(pool)) == sci


def test_sci_1a_rejects_wrong_pool_length():
    sci = Sci1A(priority=1, frequency_resource=0, time_resource=0, rri_index=0, mcs=9)
    bits = sci.encode(POOL_4x10)
    with pytest.raises(ValueError):
        Sci1A.decode(POOL_10x20, bits)


def one_bit_off(bits: BitString, delta: int) -> BitString:
    """`bits` with one zero bit appended (delta 1) or its last bit dropped (-1)."""
    if delta > 0:
        return pack([(bits.to_int(), bits.bit_length), (0, 1)])
    return pack([(bits.to_int() >> 1, bits.bit_length - 1)])


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("what,bits,decode", [
    ("MIB-SL", MibSl(0x0AB, True, 517, 44).encode(), reference_mib_sl_decode),
    ("SCI 2-A", Sci2A(3, 1, 2, 0x5A, 0xBEEF, True, CastType.UNICAST).encode(), Sci2A.decode),
    ("SCI 1-A for this pool", Sci1A(1, 3, 0, 1, 9).encode(POOL_4x10),
     lambda bits: Sci1A.decode(POOL_4x10, bits)),
], ids=["mib_sl", "sci_2a", "sci_1a"])
def test_a_payload_one_bit_short_or_long_is_refused(what, bits, decode, delta):
    decode(bits)
    off = one_bit_off(bits, delta)
    with pytest.raises(ValueError, match=f"^{what} is {bits.bit_length} bits, "
                                         f"got {bits.bit_length + delta}$"):
        decode(off)


def test_fra_bijection():
    for n in range(1, 28):
        count = fra_value_count(n)
        assert count <= 1 << fra_width(n)
        seen = set()
        for length in range(1, n + 1):
            for start in range(n - length + 1):
                v = fra_encode(n, start, length)
                assert v not in seen
                seen.add(v)
                assert fra_decode(n, v) == (start, length)
        assert seen == set(range(count))


def test_fra_rejects_out_of_range():
    with pytest.raises(ValueError):
        fra_encode(4, 3, 2)  # start 3 + length 2 > 4 subchannels
    with pytest.raises(ValueError):
        fra_decode(4, fra_value_count(4))


def test_slss_identity_rejects_out_of_range():
    with pytest.raises(ValueError):
        SlssIdentity(672, False)
    with pytest.raises(ValueError):
        SlssIdentity(-1, True)


def reference_slss_id(n_id2: int, n_id1: int) -> int:
    """TS 38.211 8.4.2: N_ID^SL = N_ID,1^SL + 336 N_ID,2^SL, the S-PSS
    carrying N_ID,2^SL in {0, 1} and the S-SSS N_ID,1^SL in 0..335."""
    assert n_id2 in (0, 1) and 0 <= n_id1 < 336
    return n_id1 + 336 * n_id2


def reference_coverage_class(slss_id: int) -> str:
    """The population an SLSS id belongs to (TS 38.331 5.8.5): id 0 is a
    sender synced straight off GNSS, 1..335 are assigned under network
    coverage, 336..671 are self-selected outside it."""
    if slss_id == 0:
        return "gnss_direct"
    return "in_coverage" if slss_id <= 335 else "out_of_coverage"


# SyncRef priority tier (lower is better) -> the coverage class it ranks
TIER_CLASS = {0: "gnss_direct", 1: "in_coverage", 2: "in_coverage",
              3: "out_of_coverage", 4: "out_of_coverage"}


def test_slss_coverage_boundaries():
    for slss_id, want in [(0, "gnss_direct"), (1, "in_coverage"), (335, "in_coverage"),
                          (336, "out_of_coverage"), (671, "out_of_coverage")]:
        assert reference_coverage_class(slss_id) == want
        for in_coverage in (True, False):
            assert TIER_CLASS[tier(SlssIdentity(slss_id, in_coverage))] == want


def test_slss_sequence_mapping_is_bijective():
    seen = set()
    for n_id2 in (0, 1):
        for n_id1 in range(336):
            ident = SlssIdentity(reference_slss_id(n_id2, n_id1), False)
            assert divmod(ident.slss_id, 336) == (n_id2, n_id1)
            seen.add(ident.slss_id)
    assert len(seen) == 672
    assert seen == set(range(672))


# the full 23-row protection fixture, transcribed independently:
# (ciphered, integrity-protected, lifecycle phase)
PROTECTION_FIXTURE = {
    1: (False, False, "before"),   # establishment request
    2: (True, True, "after"),      # establishment accept
    3: (True, True, "after"),      # modification request
    4: (True, True, "after"),      # modification accept
    5: (True, True, "after"),      # release request
    6: (True, True, "after"),      # release accept
    7: (True, True, "after"),      # keepalive request
    8: (True, True, "after"),      # keepalive response
    9: (False, False, "before"),   # authentication request
    10: (False, False, "before"),  # authentication response
    11: (False, False, "before"),  # authentication reject
    12: (False, True, "during"),   # security mode command
    13: (True, True, "during"),    # security mode complete
    14: (False, False, "during"),  # security mode reject
    15: (True, True, "after"),     # rekeying request
    16: (True, True, "after"),     # rekeying response
    17: (True, True, "after"),     # identifier update request
    18: (True, True, "after"),     # identifier update accept
    19: (True, True, "after"),     # identifier update ack
    20: (True, True, "after"),     # identifier update reject
    21: (True, True, "after"),     # modification reject
    22: (False, False, "before"),  # establishment reject
    23: (False, False, "before"),  # authentication failure
}


def test_protection_profile_matches_fixture():
    assert len(PROTECTION) == 23
    assert set(PROTECTION) == set(Pc5MessageKind)
    for kind, (ciphered, integrity, phase) in PROTECTION_FIXTURE.items():
        prof = PROTECTION[Pc5MessageKind(kind)]
        assert prof.ciphered is ciphered, kind
        assert prof.integrity is integrity, kind
        assert prof.phase is SecurityPhase(phase), kind


def test_pc5_message_field_validation():
    with pytest.raises(ValueError):
        Pc5Message(Pc5MessageKind.KEEPALIVE_REQUEST, 1 << 24, 5, 0)
    with pytest.raises(ValueError):
        Pc5Message(Pc5MessageKind.KEEPALIVE_REQUEST, 5, 6, 1 << 32)
