"""Sidelink air-interface payload codecs.

Everything here is a pure codec: dataclasses describing what a payload
carries, plus encode/decode against the big-endian bit layouts below. Each
class states its layout once, as a width table, and every payload goes
through `bits.pack` and `bits.unpack`. No channel state, no timing.

MIB-SL (32 bits, broadcast on PSBCH; encoded only, since no receiver
reads its fields):

    +---------------------+------+---------------------------------------+
    | field               | bits | meaning                               |
    +---------------------+------+---------------------------------------+
    | tdd_config          |  12  | uplink/downlink slot pattern index    |
    | in_coverage         |   1  | transmitter hears a network directly  |
    | direct_frame_number |  10  | direct frame number, 0..1023          |
    | slot_index          |   7  | slot within the frame, 0..127         |
    | reserved            |   2  | spare, transmitted as written         |
    +---------------------+------+---------------------------------------+

SCI 2-A (35 bits, second-stage control on PSSCH):

    +------------------+------+-------------------------------------+
    | harq_process_id  |   4  | process the TB belongs to           |
    | ndi              |   1  | new-data indicator                  |
    | rv               |   2  | redundancy version index            |
    | source_id        |   8  | low 8 bits of source L2 id          |
    | dest_id          |  16  | low 16 bits of destination L2 id    |
    | harq_enabled     |   1  | feedback requested on PSFCH         |
    | cast_type        |   2  | broadcast / groupcast / unicast     |
    | csi_request      |   1  | channel state report request        |
    +------------------+------+-------------------------------------+

SCI 1-A carries one claim: a contiguous subchannel span, packed as the
two-reservation frequency resource assignment (FRA), and its period. Its
5-bit time resource assignment (TRA) codes time gaps to later occurrences;
senders write it as 0, so a claim is one occurrence per period. The FRA and
period widths depend on the resource pool; see Sci1A.field_widths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from math import ceil, log2
from operator import attrgetter
from typing import Any

from .bits import BitString, pack, unpack

L2_ID_BITS = 24
L2_ID_MASK = (1 << L2_ID_BITS) - 1

SLSS_COUNT = 672  # 2 PSS sequences x 336 SSS sequences


def check_l2_id(value: int, label: str = "l2 id") -> int:
    if not 0 <= value <= L2_ID_MASK:
        raise ValueError(f"{label} {value} outside 24-bit range")
    return value


# ---------------------------------------------------------------------------
# synchronization identity and MIB-SL


@dataclass(frozen=True)
class SlssIdentity:
    """Sidelink sync signal identity plus the priority indicator I_C.

    The id itself rides in the PSS/SSS sequence pair, the indicator in
    the accompanying system information; both travel with every sync
    burst so they are kept together here. I_C true means the sender is
    itself locked to a primary source (GNSS or a base station).
    """

    slss_id: int
    in_coverage: bool

    def __post_init__(self):
        if not 0 <= self.slss_id < SLSS_COUNT:
            raise ValueError(f"slss_id {self.slss_id} outside 0..{SLSS_COUNT - 1}")


@dataclass
class MibSl:
    tdd_config: int
    in_coverage: bool
    direct_frame_number: int
    slot_index: int
    reserved: int = 0

    # the table above, in field order
    WIDTHS = {"tdd_config": 12, "in_coverage": 1, "direct_frame_number": 10,
              "slot_index": 7, "reserved": 2}
    _values = property(attrgetter(*WIDTHS))
    _widths = tuple(WIDTHS.values())

    @classmethod
    def at(cls, slot: int, tdd_config: int, in_coverage: bool) -> MibSl:
        """The MIB-SL of an S-SSB sent in `slot`."""
        return cls(tdd_config, in_coverage, (slot // 10) % 1024, slot % 10)

    def encode(self) -> BitString:
        return pack(zip(self._values, self._widths))


# ---------------------------------------------------------------------------
# frequency resource assignment packing for SCI 1-A


def fra_value_count(num_subchannels: int) -> int:
    n = num_subchannels
    return n * (n + 1) // 2


def fra_width(num_subchannels: int) -> int:
    return ceil(log2(fra_value_count(num_subchannels)))


def fra_encode(num_subchannels: int, start: int, length: int) -> int:
    """Index of a contiguous subchannel assignment, enumerated
    lexicographically over (length, start)."""
    n = num_subchannels
    if not 1 <= length <= n:
        raise ValueError(f"length {length} outside 1..{n}")
    if not 0 <= start <= n - length:
        raise ValueError(f"start {start} leaves no room for length {length}")
    return sum(n - shorter + 1 for shorter in range(1, length)) + start


def fra_decode(num_subchannels: int, value: int) -> tuple[int, int]:
    """Inverse of fra_encode; returns (start, length)."""
    n = num_subchannels
    if not 0 <= value < fra_value_count(n):
        raise ValueError(f"fra value {value} out of range")
    for length in range(1, n + 1):
        span = n - length + 1
        if value < span:
            return value, length
        value -= span
    raise AssertionError("unreachable: value bounded by fra_value_count")


# ---------------------------------------------------------------------------
# SCI stages


@dataclass(frozen=True)
class Sci1A:
    """First-stage control: where the data sits and how it repeats.

    A heard payload is decoded once per world and kept only as the
    `ClaimShape` it claims (see `World.sci1a_cache`).
    """

    priority: int
    frequency_resource: int
    time_resource: int
    rri_index: int
    mcs: int
    dmrs_pattern: int = 0
    second_stage_format: int = 0
    beta_offset: int = 0
    dmrs_ports: int = 0
    additional_mcs: int = 0
    psfch_overhead: int = 0
    reserved: int = 0

    @staticmethod
    def field_widths(pool) -> dict[str, int]:
        """Per-field bit widths for a given resource pool configuration.

        The pool sets the frequency resource and period widths; the rest
        are fixed at two reservations per period (a 5-bit time resource),
        one DMRS pattern, no additional MCS table, a PSFCH period of 2 or
        4 slots and 2 reserved bits (TS 38.212 8.3.1.1).
        """
        rri_entries = len(pool.period_list_ms)
        return {
            "priority": 3,
            "frequency_resource": fra_width(pool.num_subchannels),
            "time_resource": 5,
            "rri_index": ceil(log2(rri_entries)) if rri_entries > 1 else 0,
            "dmrs_pattern": 0,
            "second_stage_format": 2,
            "beta_offset": 2,
            "dmrs_ports": 1,
            "mcs": 5,
            "additional_mcs": 0,
            "psfch_overhead": 1,
            "reserved": 2,
        }

    def encode(self, pool) -> BitString:
        widths = self.field_widths(pool)
        return pack(zip(attrgetter(*widths)(self), widths.values()))

    @classmethod
    def decode(cls, pool, payload: BitString) -> "Sci1A":
        widths = cls.field_widths(pool)
        values = unpack(payload, widths.values(), "SCI 1-A for this pool")
        return cls(**dict(zip(widths, values)))


class CastType(IntEnum):
    UNICAST = 0
    GROUPCAST = 1
    BROADCAST = 2


@dataclass(frozen=True)
class Sci2A:
    """Second-stage control: who the TB is for and its HARQ context.

    Frozen, because every addressed receiver of one payload shares one
    decoded instance (see `World.sci2a_cache`).
    """

    harq_process_id: int
    ndi: int
    rv: int
    source_id: int
    dest_id: int
    harq_enabled: bool
    cast_type: CastType
    csi_request: int = 0

    # the table above, in field order: decode builds the instance positionally
    WIDTHS = {"harq_process_id": 4, "ndi": 1, "rv": 2, "source_id": 8, "dest_id": 16,
              "harq_enabled": 1, "cast_type": 2, "csi_request": 1}
    _values = property(attrgetter(*WIDTHS))
    _widths = tuple(WIDTHS.values())

    def encode(self) -> BitString:
        return pack(zip(self._values, self._widths))

    @classmethod
    def decode(cls, payload: BitString) -> "Sci2A":
        *head, harq_enabled, cast_type, csi_request = unpack(payload, cls._widths, "SCI 2-A")
        return cls(*head, bool(harq_enabled), CastType(cast_type), csi_request)

    @classmethod
    def for_tb(cls, process_id: int, ndi: int, rv: int, src_l2: int, dst_l2: int,
               harq_enabled: bool, cast_type: CastType) -> "Sci2A":
        """Build from full L2 ids, truncating to the on-air widths."""
        return cls(
            harq_process_id=process_id,
            ndi=ndi,
            rv=rv,
            source_id=check_l2_id(src_l2, "source l2") & 0xFF,
            dest_id=check_l2_id(dst_l2, "dest l2") & 0xFFFF,
            harq_enabled=harq_enabled,
            cast_type=cast_type,
        )


def decode_once(cache: dict, decode, *args):
    """`decode(*args)`, memoised in `cache` by the content of the payload
    (the last argument); None for a malformed payload."""
    bits = args[-1]
    key = (bits.data, bits.bit_length)
    try:
        return cache[key]
    except KeyError:
        try:
            sci = decode(*args)
        except ValueError:
            sci = None
        cache[key] = sci
        return sci


# ---------------------------------------------------------------------------
# PC5 signalling message set


class SecurityPhase(Enum):
    """When in a link's life a message legitimately appears."""

    BEFORE = "before"   # no security context yet
    DURING = "during"   # security mode exchange itself
    AFTER = "after"     # established context required


class Pc5MessageKind(IntEnum):
    ESTABLISHMENT_REQUEST = 1
    ESTABLISHMENT_ACCEPT = 2
    MODIFICATION_REQUEST = 3
    MODIFICATION_ACCEPT = 4
    RELEASE_REQUEST = 5
    RELEASE_ACCEPT = 6
    KEEPALIVE_REQUEST = 7
    KEEPALIVE_RESPONSE = 8
    AUTHENTICATION_REQUEST = 9
    AUTHENTICATION_RESPONSE = 10
    AUTHENTICATION_REJECT = 11
    SECURITY_MODE_COMMAND = 12
    SECURITY_MODE_COMPLETE = 13
    SECURITY_MODE_REJECT = 14
    REKEYING_REQUEST = 15
    REKEYING_RESPONSE = 16
    IDENTIFIER_UPDATE_REQUEST = 17
    IDENTIFIER_UPDATE_ACCEPT = 18
    IDENTIFIER_UPDATE_ACK = 19
    IDENTIFIER_UPDATE_REJECT = 20
    MODIFICATION_REJECT = 21
    ESTABLISHMENT_REJECT = 22
    AUTHENTICATION_FAILURE = 23


@dataclass(frozen=True)
class Protection:
    ciphered: bool
    integrity: bool
    phase: SecurityPhase


_B, _D, _A = SecurityPhase.BEFORE, SecurityPhase.DURING, SecurityPhase.AFTER

PROTECTION: dict[Pc5MessageKind, Protection] = {
    Pc5MessageKind.ESTABLISHMENT_REQUEST: Protection(False, False, _B),
    Pc5MessageKind.ESTABLISHMENT_ACCEPT: Protection(True, True, _A),
    Pc5MessageKind.MODIFICATION_REQUEST: Protection(True, True, _A),
    Pc5MessageKind.MODIFICATION_ACCEPT: Protection(True, True, _A),
    Pc5MessageKind.RELEASE_REQUEST: Protection(True, True, _A),
    Pc5MessageKind.RELEASE_ACCEPT: Protection(True, True, _A),
    Pc5MessageKind.KEEPALIVE_REQUEST: Protection(True, True, _A),
    Pc5MessageKind.KEEPALIVE_RESPONSE: Protection(True, True, _A),
    Pc5MessageKind.AUTHENTICATION_REQUEST: Protection(False, False, _B),
    Pc5MessageKind.AUTHENTICATION_RESPONSE: Protection(False, False, _B),
    Pc5MessageKind.AUTHENTICATION_REJECT: Protection(False, False, _B),
    Pc5MessageKind.SECURITY_MODE_COMMAND: Protection(False, True, _D),
    Pc5MessageKind.SECURITY_MODE_COMPLETE: Protection(True, True, _D),
    Pc5MessageKind.SECURITY_MODE_REJECT: Protection(False, False, _D),
    Pc5MessageKind.REKEYING_REQUEST: Protection(True, True, _A),
    Pc5MessageKind.REKEYING_RESPONSE: Protection(True, True, _A),
    Pc5MessageKind.IDENTIFIER_UPDATE_REQUEST: Protection(True, True, _A),
    Pc5MessageKind.IDENTIFIER_UPDATE_ACCEPT: Protection(True, True, _A),
    Pc5MessageKind.IDENTIFIER_UPDATE_ACK: Protection(True, True, _A),
    Pc5MessageKind.IDENTIFIER_UPDATE_REJECT: Protection(True, True, _A),
    Pc5MessageKind.MODIFICATION_REJECT: Protection(True, True, _A),
    Pc5MessageKind.ESTABLISHMENT_REJECT: Protection(False, False, _B),
    Pc5MessageKind.AUTHENTICATION_FAILURE: Protection(False, False, _B),
}


@dataclass
class Pc5Message:
    """One PC5 signalling PDU as it rides the air.

    body values are ints or strings (byte fields travel hex-encoded) so
    the canonical serialization is unambiguous. counter is the 32-bit
    anti-replay counter covered by the MAC. cipher_blob replaces the
    body on the wire when the message is confidentiality-protected, and
    auth_tag carries the truncated MAC when integrity-protected.
    """

    kind: Pc5MessageKind
    src_l2: int
    dst_l2: int
    counter: int
    body: dict[str, Any] = field(default_factory=dict)
    cipher_blob: str | None = None
    auth_tag: str | None = None

    def __post_init__(self):
        check_l2_id(self.src_l2, "src l2")
        check_l2_id(self.dst_l2, "dst l2")
        if not 0 <= self.counter < (1 << 32):
            raise ValueError(f"counter {self.counter} outside 32-bit range")

    def header_bytes(self) -> bytes:
        return json.dumps(
            [int(self.kind), self.src_l2, self.dst_l2, self.counter],
            separators=(",", ":"),
        ).encode()

    def body_bytes(self) -> bytes:
        for key, value in self.body.items():
            if not isinstance(value, (int, str)):
                raise ValueError(f"body field {key!r} must be int or str")
        return json.dumps(sorted(self.body.items()), separators=(",", ":")).encode()

    def mac_input(self) -> bytes:
        """Bytes covered by the integrity tag: header plus wire payload."""
        wire = self.cipher_blob.encode() if self.cipher_blob is not None else self.body_bytes()
        return self.header_bytes() + b"|" + wire
