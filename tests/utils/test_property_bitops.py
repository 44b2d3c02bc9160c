"""Property-based tests of the bit-manipulation primitives.

The vectorised helpers back the DTA hot path, so each one is checked
against an independent scalar oracle (Python's arbitrary-precision ints)
over hypothesis-generated operands, alongside the bounds the FPU layer
relies on.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import bit_length64, count_ones

from tests.utils.scalar_oracles import longest_carry_chain

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
WIDTH = st.integers(min_value=1, max_value=64)
U64_LISTS = st.lists(U64, min_size=1, max_size=32)


@given(U64_LISTS)
def test_count_ones_matches_scalar_oracle(values):
    array = np.array(values, dtype=np.uint64)
    counts = count_ones(array)
    assert counts.dtype == np.int64
    assert list(counts) == [bin(v).count("1") for v in values]
    assert int(counts.max()) <= 64


@given(U64_LISTS)
def test_bit_length_matches_python(values):
    array = np.array(values, dtype=np.uint64)
    assert list(bit_length64(array)) == [v.bit_length() for v in values]


@given(st.tuples(U64, U64), WIDTH)
def test_carry_chain_invariants(pair, width):
    x, y = pair
    mask = (1 << width) - 1
    length = longest_carry_chain(x, y, width)
    assert 0 <= length <= width
    # A chain exists iff some position generates a carry.
    assert (length > 0) == (x & y & mask != 0)
