"""IEEE-754 format constants and raw-bits conversion helpers.

The rest of the FPU layer works on raw bit patterns (Python ints or
``numpy.uint64`` arrays).  This module centralises the format geometry used
across the paper's figures — the sign / exponent / mantissa split that the
x-axes of Figs. 6-8 are laid out in — and the conversions between native
floats and their bit patterns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FloatFormat:
    """Geometry of an IEEE-754 binary interchange format."""

    name: str
    width: int
    exponent_bits: int
    mantissa_bits: int

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def exponent_max(self) -> int:
        return (1 << self.exponent_bits) - 1

    @property
    def sign_bit(self) -> int:
        return self.width - 1

    @property
    def exponent_lo(self) -> int:
        return self.mantissa_bits

    @property
    def quiet_bit(self) -> int:
        """Position of the quiet-NaN mantissa MSB."""
        return self.mantissa_bits - 1

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def fields(self, bits: int):
        """Split raw ``bits`` into (sign, biased exponent, mantissa)."""
        sign = (bits >> self.sign_bit) & 1
        exponent = (bits >> self.exponent_lo) & ((1 << self.exponent_bits) - 1)
        mantissa = bits & ((1 << self.mantissa_bits) - 1)
        return sign, exponent, mantissa

    def pack(self, sign: int, exponent: int, mantissa: int) -> int:
        """Assemble raw bits from the three fields (fields are masked)."""
        return (
            ((sign & 1) << self.sign_bit)
            | ((exponent & ((1 << self.exponent_bits) - 1)) << self.exponent_lo)
            | (mantissa & ((1 << self.mantissa_bits) - 1))
        )

    def bit_region(self, bit: int) -> str:
        """Classify output bit index as 'sign' / 'exponent' / 'mantissa'.

        Bit indices are LSB-first (bit 0 = mantissa LSB), matching the rest
        of the library; the paper's figures draw MSB-first but report the
        same three regions.
        """
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} outside format width {self.width}")
        if bit == self.sign_bit:
            return "sign"
        if bit >= self.exponent_lo:
            return "exponent"
        return "mantissa"


SINGLE = FloatFormat(name="single", width=32, exponent_bits=8, mantissa_bits=23)
DOUBLE = FloatFormat(name="double", width=64, exponent_bits=11, mantissa_bits=52)

FORMATS = {"single": SINGLE, "double": DOUBLE}


def float_to_bits64(value: float) -> int:
    """Raw 64-bit pattern of a double, as an unsigned int."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits64_to_float(bits: int) -> float:
    """Double from its raw 64-bit pattern."""
    return struct.unpack("<d", struct.pack("<Q", bits & DOUBLE.mask))[0]


def floats_to_bits64(values: np.ndarray) -> np.ndarray:
    """Vectorised raw-bit view of a float64 array (copy)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).copy()


def floats_to_bits32(values: np.ndarray) -> np.ndarray:
    """Vectorised raw-bit view of values rounded to float32 (copy)."""
    return np.asarray(values, dtype=np.float32).view(np.uint32).copy()
