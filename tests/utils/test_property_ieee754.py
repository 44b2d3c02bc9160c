"""Property-based tests of the IEEE-754 geometry and conversion helpers.

The format split (sign/exponent/mantissa) underlies every figure's
x-axis and the timing model's mask builders, so pack/fields must be an
exact bijection on width-masked patterns and the vectorised converters
must agree with the struct-based scalar ones bit-for-bit — including at
the special encodings (subnormals, infinities, NaN payloads).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.ieee754 import (
    DOUBLE,
    SINGLE,
    bits64_to_float,
    float_to_bits64,
    floats_to_bits32,
    floats_to_bits64,
)

from tests.utils.scalar_oracles import bits32_to_float, float_to_bits32

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
FMT = st.sampled_from([SINGLE, DOUBLE])
FINITE = st.floats(allow_nan=False)
FLOAT_LISTS = st.lists(FINITE, min_size=1, max_size=32)
# float32-representable only: the scalar struct-based converter refuses
# doubles beyond the single range instead of rounding them to inf.
FLOAT32_LISTS = st.lists(st.floats(allow_nan=False, width=32),
                         min_size=1, max_size=32)


@given(FMT, U64)
def test_pack_fields_bijection(fmt, raw):
    bits = raw & fmt.mask
    sign, exponent, mantissa = fmt.fields(bits)
    assert sign in (0, 1)
    assert 0 <= exponent <= fmt.exponent_max
    assert 0 <= mantissa < (1 << fmt.mantissa_bits)
    assert fmt.pack(sign, exponent, mantissa) == bits


@given(FMT, U64)
def test_bit_regions_partition_the_word(fmt, raw):
    bits = raw & fmt.mask
    sign, exponent, mantissa = fmt.fields(bits)
    rebuilt = 0
    for bit in range(fmt.width):
        region = fmt.bit_region(bit)
        if bits >> bit & 1:
            rebuilt |= 1 << bit
        if bit == fmt.sign_bit:
            assert region == "sign"
        elif bit >= fmt.exponent_lo:
            assert region == "exponent"
        else:
            assert region == "mantissa"
    assert rebuilt == bits
    assert mantissa == bits & ((1 << fmt.mantissa_bits) - 1)
    with pytest.raises(ValueError):
        fmt.bit_region(fmt.width)
    with pytest.raises(ValueError):
        fmt.bit_region(-1)


@given(st.floats())
def test_double_round_trip_is_bit_exact(value):
    bits = float_to_bits64(value)
    assert 0 <= bits < (1 << 64)
    assert float_to_bits64(bits64_to_float(bits)) == bits


@given(U64)
def test_bits64_round_trip_outside_nan_space(bits):
    """Every non-NaN pattern survives bits -> float -> bits exactly."""
    bits &= DOUBLE.mask
    if math.isnan(bits64_to_float(bits)):
        # NaN payloads may be quieted by the FPU; only NaN-ness survives.
        back = float_to_bits64(bits64_to_float(bits))
        assert math.isnan(bits64_to_float(back))
    else:
        assert float_to_bits64(bits64_to_float(bits)) == bits


@given(FLOAT_LISTS)
def test_vectorised_double_converters_match_scalar(values):
    array = np.array(values, dtype=np.float64)
    bits = floats_to_bits64(array)
    assert list(bits) == [float_to_bits64(float(v)) for v in array]
    assert list(bits.view(np.float64)) == list(array)


@given(FLOAT32_LISTS)
def test_vectorised_single_converters_match_scalar(values):
    bits = floats_to_bits32(values)
    assert list(bits) == [float_to_bits32(float(v)) for v in values]
    rounded = np.array(values, dtype=np.float32)
    assert list(bits.view(np.float32)) == list(rounded)
    for pattern, value in zip(bits, rounded):
        assert bits32_to_float(int(pattern)) == float(value)


class TestSpecialEncodings:
    @pytest.mark.parametrize("fmt,decode", [
        (DOUBLE, bits64_to_float), (SINGLE, bits32_to_float),
    ], ids=["double", "single"])
    def test_canonical_values(self, fmt, decode):
        assert decode(fmt.pack(0, 0, 0)) == 0.0
        assert decode(fmt.pack(1, 0, 0)) == 0.0  # -0.0 compares equal
        assert decode(fmt.pack(0, fmt.exponent_max, 0)) == float("inf")
        assert decode(fmt.pack(1, fmt.exponent_max, 0)) == float("-inf")
        assert np.isnan(decode(fmt.pack(0, fmt.exponent_max, 1)))
        # Smallest subnormal: 2^(1 - bias - mantissa_bits).
        tiny = decode(fmt.pack(0, 0, 1))
        assert tiny == 2.0 ** (1 - fmt.bias - fmt.mantissa_bits)

    def test_one_has_bias_exponent(self):
        for fmt, encode in ((DOUBLE, float_to_bits64),
                            (SINGLE, float_to_bits32)):
            sign, exponent, mantissa = fmt.fields(encode(1.0))
            assert (sign, exponent, mantissa) == (0, fmt.bias, 0)
