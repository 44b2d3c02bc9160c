"""Bit-manipulation primitives used throughout the circuit and FPU layers.

Scalar helpers operate on Python integers (arbitrary precision, masked to a
stated width by the caller).  Vectorised helpers operate on ``numpy.uint64``
arrays and are the workhorses of the dynamic-timing-analysis backend, where
millions of operand pairs must be characterised per campaign.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF

_U64 = np.uint64


def popcount64(value: int) -> int:
    """Number of set bits in the low 64 bits of ``value``."""
    return bin(value & MASK64).count("1")


def count_ones(array: np.ndarray) -> np.ndarray:
    """Vectorised population count for ``uint64`` arrays (int64 result)."""
    return np.bitwise_count(np.asarray(array, dtype=np.uint64)).astype(np.int64)


def bit_length64(array: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for ``uint64`` arrays (0 for zero).

    Smears the leading one down over every lower bit, in place on one
    copy, then counts the ones.
    """
    v = np.array(array, dtype=np.uint64)
    for shift in (1, 2, 4, 8, 16, 32):
        v |= v >> _U64(shift)
    return count_ones(v)


def extract_field(value: int, lo: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``lo`` (LSB = 0)."""
    if width < 0 or lo < 0:
        raise ValueError("lo and width must be non-negative")
    return (value >> lo) & ((1 << width) - 1)


def set_bits(value: int, lo: int, width: int, field: int) -> int:
    """Return ``value`` with bits [lo, lo+width) replaced by ``field``."""
    mask = ((1 << width) - 1) << lo
    return (value & ~mask) | ((field << lo) & mask)


def longest_carry_chain(a: int, b: int, width: int) -> int:
    """Length of the longest carry-propagation chain when adding ``a + b``.

    This is the quantity that determines the dynamic delay of a ripple/
    parallel-prefix adder for a *specific* operand pair: a carry generated at
    bit ``i`` (``a_i & b_i``) ripples through every consecutive propagate
    position (``a_j ^ b_j``) above it.  The longest such run bounds the
    settling time of the sum.
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


def bits_of(value: int, width: int) -> list:
    """Little-endian list of the low ``width`` bits of ``value``."""
    return [(value >> i) & 1 for i in range(width)]
