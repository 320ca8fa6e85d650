"""Big-endian bit packing helpers for fixed-width air-interface fields.

Fields are written most-significant-bit first in declaration order, the
way 3GPP tabulates payloads. A payload that is not a whole number of
bytes is padded with zero bits on the right when exported as bytes; the
true bit length is kept alongside so round-trips stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitString:
    """Immutable bit payload: packed bytes plus the exact bit length."""

    data: bytes
    bit_length: int

    def __post_init__(self):
        if self.bit_length < 0:
            raise ValueError(f"negative bit_length {self.bit_length}")
        if len(self.data) != (self.bit_length + 7) // 8:
            raise ValueError(
                f"data holds {len(self.data)} bytes, expected "
                f"{(self.bit_length + 7) // 8} for {self.bit_length} bits"
            )
        # pad bits beyond bit_length must be zero so equality is semantic
        if self.bit_length % 8:
            tail = self.data[-1] & ((1 << (8 - self.bit_length % 8)) - 1)
            if tail:
                raise ValueError("nonzero padding bits after payload end")

    def to_int(self) -> int:
        return int.from_bytes(self.data, "big") >> (-self.bit_length % 8)


def pack(fields) -> BitString:
    """`(value, width)` pairs, most significant bit first, as one payload.
    Refuses a value that does not fit its width, and a negative width."""
    acc = bits = 0
    for value, width in fields:
        # nonzero for a negative value too; a negative width raises
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = acc << width | value
        bits += width
    pad = -bits % 8
    return BitString((acc << pad).to_bytes((bits + pad) // 8, "big"), bits)


def unpack(payload: BitString, widths, what: str) -> list[int]:
    """The field values of `payload` at `widths`, most significant bit first.
    Refuses, naming the payload `what`, any length but the sum of the widths."""
    left = sum(widths)
    if payload.bit_length != left:
        raise ValueError(f"{what} is {left} bits, got {payload.bit_length}")
    value = payload.to_int()
    out = []
    for width in widths:
        left -= width
        out.append(value >> left & ((1 << width) - 1))
    return out
