"""Tests for IEEE-754 geometry and raw-bit conversions."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import ieee754
from repro.utils.ieee754 import DOUBLE, SINGLE


class TestGeometry:
    def test_double_layout(self):
        assert DOUBLE.width == 64
        assert DOUBLE.exponent_bits == 11
        assert DOUBLE.mantissa_bits == 52
        assert DOUBLE.bias == 1023
        assert DOUBLE.sign_bit == 63
        assert DOUBLE.exponent_lo == 52

    def test_single_layout(self):
        assert SINGLE.width == 32
        assert SINGLE.bias == 127
        assert SINGLE.exponent_max == 255

    def test_fields_of_one(self):
        bits = ieee754.float_to_bits64(1.0)
        sign, exponent, mantissa = DOUBLE.fields(bits)
        assert (sign, exponent, mantissa) == (0, 1023, 0)

    def test_pack_unpack_roundtrip(self):
        bits = DOUBLE.pack(1, 2047, 123)
        assert DOUBLE.fields(bits) == (1, 2047, 123)

    def test_pack_masks_fields(self):
        assert DOUBLE.pack(2, 0, 0) == 0  # sign masked to 1 bit -> 0

    def test_bit_regions(self):
        assert DOUBLE.bit_region(63) == "sign"
        assert DOUBLE.bit_region(62) == "exponent"
        assert DOUBLE.bit_region(52) == "exponent"
        assert DOUBLE.bit_region(51) == "mantissa"
        assert DOUBLE.bit_region(0) == "mantissa"

    def test_bit_region_out_of_range(self):
        with pytest.raises(ValueError):
            DOUBLE.bit_region(64)


class TestScalarConversions:
    @given(st.floats(allow_nan=False, allow_infinity=True, width=64))
    def test_double_roundtrip(self, value):
        assert ieee754.bits64_to_float(ieee754.float_to_bits64(value)) == value

    def test_known_patterns(self):
        assert ieee754.float_to_bits64(1.0) == 0x3FF0000000000000
        assert ieee754.float_to_bits64(-2.0) == 0xC000000000000000
        assert ieee754.floats_to_bits32([1.0])[0] == 0x3F800000

    def test_matches_struct(self):
        for value in (0.0, -0.0, 1.5, math.pi, 1e300, 5e-324):
            expected = struct.unpack("<Q", struct.pack("<d", value))[0]
            assert ieee754.float_to_bits64(value) == expected


class TestVectorConversions:
    def test_floats_bits_roundtrip(self, rng):
        values = rng.normal(size=1000)
        bits = ieee754.floats_to_bits64(values)
        assert np.array_equal(bits.view(np.float64), values)

    def test_vector_matches_scalar(self, rng):
        values = rng.normal(size=100)
        bits = ieee754.floats_to_bits64(values)
        for value, raw in zip(values, bits):
            assert int(raw) == ieee754.float_to_bits64(float(value))

    def test_single_vector_roundtrip(self, rng):
        values = rng.normal(size=100).astype(np.float32)
        bits = ieee754.floats_to_bits32(values)
        assert np.array_equal(bits.view(np.float32), values)
