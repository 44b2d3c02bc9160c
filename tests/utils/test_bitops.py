"""Unit and property tests for the bit-manipulation primitives and the
carry-chain oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import bitops

from tests.utils.scalar_oracles import longest_carry_chain

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestPopcount:
    def test_zero(self):
        assert bitops.count_ones(np.array([0], dtype=np.uint64))[0] == 0

    def test_all_ones(self):
        ones = np.array([(1 << 64) - 1], dtype=np.uint64)
        assert bitops.count_ones(ones)[0] == 64

    def test_single_bits(self):
        values = np.array([1 << bit for bit in range(64)], dtype=np.uint64)
        assert list(bitops.count_ones(values)) == [1] * 64

    @given(U64)
    def test_matches_bin_count(self, value):
        counts = bitops.count_ones(np.array([value], dtype=np.uint64))
        assert counts[0] == bin(value).count("1")

    def test_vectorised_matches_scalar(self, rng):
        values = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
        counts = bitops.count_ones(values)
        for value, count in zip(values, counts):
            assert count == bin(int(value)).count("1")


class TestBitLength:
    def test_zero_is_zero(self):
        assert bitops.bit_length64(np.array([0], dtype=np.uint64))[0] == 0

    def test_vectorised_matches_int_bit_length(self, rng):
        values = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
        lengths = bitops.bit_length64(values)
        for value, length in zip(values, lengths):
            assert length == int(value).bit_length()

    def test_powers_of_two(self):
        values = np.array([1 << k for k in range(64)], dtype=np.uint64)
        assert list(bitops.bit_length64(values)) == list(range(1, 65))


def _reference_longest_chain(a: int, b: int, width: int) -> int:
    """O(width^2) oracle for the longest carry chain."""
    best = 0
    for start in range(width):
        if not ((a >> start) & 1 and (b >> start) & 1):
            continue
        length = 1
        for j in range(start + 1, width):
            if ((a >> j) & 1) ^ ((b >> j) & 1):
                length += 1
            else:
                break
        best = max(best, length)
    return best


class TestCarryChains:
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=200)
    def test_scalar_matches_oracle(self, a, b):
        assert longest_carry_chain(a, b, 16) == (
            _reference_longest_chain(a, b, 16)
        )

    def test_no_generate_no_chain(self):
        assert longest_carry_chain(0b1010, 0b0101, 4) == 0

    def test_full_propagate_chain(self):
        # 0b0001 + 0b1111: carry generated at bit 0 ripples to the top.
        assert longest_carry_chain(0b0001, 0b1111, 4) == 4

