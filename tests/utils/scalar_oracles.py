"""Scalar references that tests check the library against.

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



def longest_carry_chain(a: int, b: int, width: int) -> int:
    """Length of the longest carry-propagation chain when adding ``a + b``.

    This is the quantity that determines the dynamic delay of a ripple/
    parallel-prefix adder for a *specific* operand pair: a carry generated at
    bit ``i`` (``a_i & b_i``) ripples through every consecutive propagate
    position (``a_j ^ b_j``) above it.  The longest such run bounds the
    settling time of the sum.  The gate-level calibration test checks that
    failure onset follows it.
    """
    a &= (1 << width) - 1
    b &= (1 << width) - 1
    generate = a & b
    propagate = a ^ b
    longest = 0
    run = 0
    carry_alive = False
    for i in range(width):
        g = (generate >> i) & 1
        p = (propagate >> i) & 1
        if g:
            carry_alive = True
            run = 1
        elif p and carry_alive:
            run += 1
        else:
            carry_alive = False
            run = 0
        if run > longest:
            longest = run
    return longest
