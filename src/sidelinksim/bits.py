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


class BitWriter:
    """Accumulates unsigned fields MSB-first."""

    def __init__(self):
        self._value = 0
        self._bits = 0

    def write(self, value: int, width: int) -> "BitWriter":
        if width < 0:
            raise ValueError(f"negative field width {width}")
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._bits += width
        return self

    def finish(self) -> BitString:
        pad = -self._bits % 8
        raw = (self._value << pad).to_bytes((self._bits + pad) // 8, "big")
        return BitString(raw, self._bits)


class BitReader:
    """Consumes unsigned fields MSB-first from a BitString."""

    def __init__(self, source: BitString):
        self._value = source.to_int()
        self._remaining = source.bit_length

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError(f"negative field width {width}")
        if width > self._remaining:
            raise ValueError(
                f"read of {width} bits exceeds {self._remaining} remaining"
            )
        self._remaining -= width
        out = self._value >> self._remaining
        self._value &= (1 << self._remaining) - 1
        return out

    def expect_end(self):
        if self._remaining:
            raise ValueError(f"{self._remaining} unread bits at payload end")
