"""Vectorised bit-manipulation primitives for the FPU timing model.

The helpers operate on ``numpy.uint64`` arrays and are the workhorses of
the FPU's dynamic timing analysis, where millions of operand pairs must
be characterised per campaign.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


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
