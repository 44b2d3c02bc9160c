"""Property-based tests of the bit-manipulation primitives.

The vectorised helpers back the DTA hot path, so each one is checked
against an independent scalar oracle (Python's arbitrary-precision ints)
over hypothesis-generated operands, alongside the algebraic invariants
(round-trips, involutions, bounds) the FPU layer relies on.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import (
    MASK64,
    bit_length64,
    bits_of,
    count_ones,
    extract_field,
    longest_carry_chain,
    popcount64,
    set_bits,
)

from tests.utils.scalar_oracles import from_bits

U64 = st.integers(min_value=0, max_value=MASK64)
WIDTH = st.integers(min_value=1, max_value=64)
U64_LISTS = st.lists(U64, min_size=1, max_size=32)


@given(U64)
def test_popcount_matches_python(value):
    assert popcount64(value) == bin(value).count("1")


@given(U64_LISTS)
def test_count_ones_matches_scalar_oracle(values):
    array = np.array(values, dtype=np.uint64)
    counts = count_ones(array)
    assert counts.dtype == np.int64
    assert list(counts) == [popcount64(v) for v in values]
    assert int(counts.max()) <= 64


@given(U64_LISTS)
def test_bit_length_matches_python(values):
    array = np.array(values, dtype=np.uint64)
    assert list(bit_length64(array)) == [v.bit_length() for v in values]


@given(U64, st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=64), U64)
def test_extract_set_round_trip(value, lo, width, field):
    updated = set_bits(value, lo, width, field)
    assert extract_field(updated, lo, width) == field & ((1 << width) - 1)
    # Bits outside [lo, lo+width) are untouched.
    mask = ((1 << width) - 1) << lo
    assert updated & ~mask == value & ~mask


@given(U64)
def test_extract_field_rejects_negative_geometry(value):
    with pytest.raises(ValueError):
        extract_field(value, -1, 4)
    with pytest.raises(ValueError):
        extract_field(value, 4, -1)


@given(U64, WIDTH)
def test_bits_round_trip(value, width):
    bits = bits_of(value, width)
    assert len(bits) == width
    assert set(bits) <= {0, 1}
    assert from_bits(bits) == value & ((1 << width) - 1)


@given(st.tuples(U64, U64), WIDTH)
def test_carry_chain_invariants(pair, width):
    x, y = pair
    mask = (1 << width) - 1
    length = longest_carry_chain(x, y, width)
    assert 0 <= length <= width
    # A chain exists iff some position generates a carry.
    assert (length > 0) == (x & y & mask != 0)
