"""Scalar reference conversions that tests check the library against.

Each one is a direct ``struct`` or loop formulation, independent of the
vectorised helpers in :mod:`repro.utils`.
"""

import struct

from repro.utils.ieee754 import SINGLE


def float_to_bits32(value: float) -> int:
    """Raw 32-bit pattern of value rounded to single precision."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits32_to_float(bits: int) -> float:
    """Double holding the exact value of a single from its raw pattern."""
    return struct.unpack("<f", struct.pack("<I", bits & SINGLE.mask))[0]


def from_bits(bits) -> int:
    """Inverse of ``bits_of``: little-endian bit list to integer."""
    out = 0
    for i, b in enumerate(bits):
        if b:
            out |= 1 << i
    return out
