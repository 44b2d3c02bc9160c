"""Property-based validation of the softfloat against hardware IEEE-754."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpu import softfloat
from repro.fpu.formats import FpOp
from repro.fpu.softfloat import (
    INF,
    NAN,
    NORMAL,
    SUBNORMAL,
    ZERO,
    classify,
    execute,
    fp_add,
    fp_div,
    fp_f2i,
    fp_i2f,
    fp_mul,
    fp_sub,
    infinity,
    quiet_nan,
    zero,
)
from repro.utils.ieee754 import (
    DOUBLE,
    SINGLE,
    bits64_to_float,
    float_to_bits64,
)

from tests.utils.scalar_oracles import bits32_to_float, float_to_bits32

BITS64 = st.integers(0, (1 << 64) - 1)
BITS32 = st.integers(0, (1 << 32) - 1)

_REFS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
}


def _check_double(kind, a, b):
    got = {"add": fp_add, "sub": fp_sub, "mul": fp_mul, "div": fp_div}[kind](
        a, b, DOUBLE
    )
    with np.errstate(all="ignore"):
        want_value = _REFS[kind](np.float64(bits64_to_float(a)),
                                 np.float64(bits64_to_float(b)))
    want = float_to_bits64(float(want_value))
    if math.isnan(bits64_to_float(got)) and math.isnan(float(want_value)):
        return
    assert got == want, (
        f"{kind}({bits64_to_float(a)!r}, {bits64_to_float(b)!r})"
    )


def _check_single(kind, a, b):
    got = {"add": fp_add, "sub": fp_sub, "mul": fp_mul, "div": fp_div}[kind](
        a, b, SINGLE
    )
    with np.errstate(all="ignore"):
        want_value = _REFS[kind](np.float32(bits32_to_float(a)),
                                 np.float32(bits32_to_float(b)))
    want = float_to_bits32(float(np.float32(want_value)))
    if math.isnan(bits32_to_float(got)) and math.isnan(float(want_value)):
        return
    assert got == want


class TestAgainstHardware:
    """Bit-exact agreement with hardware IEEE-754 over the raw pattern
    space (covers normals, subnormals, zeros, infinities, NaNs)."""

    @pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
    @given(a=BITS64, b=BITS64)
    @settings(max_examples=400, deadline=None)
    def test_double(self, kind, a, b):
        _check_double(kind, a, b)

    @pytest.mark.parametrize("kind", ["add", "sub", "mul", "div"])
    @given(a=BITS32, b=BITS32)
    @settings(max_examples=400, deadline=None)
    def test_single(self, kind, a, b):
        _check_single(kind, a, b)

    @given(value=st.integers(-(1 << 63), (1 << 63) - 1))
    @settings(max_examples=300, deadline=None)
    def test_i2f_double(self, value):
        got = fp_i2f(value & ((1 << 64) - 1), DOUBLE)
        assert got == float_to_bits64(float(np.float64(value)))

    @given(value=st.integers(-(1 << 31), (1 << 31) - 1))
    @settings(max_examples=300, deadline=None)
    def test_i2f_single(self, value):
        got = fp_i2f(value & 0xFFFFFFFF, SINGLE)
        assert got == float_to_bits32(float(np.float32(value)))

    @given(a=BITS64)
    @settings(max_examples=300, deadline=None)
    def test_f2i_double(self, a):
        value = bits64_to_float(a)
        got = fp_f2i(a, DOUBLE)
        if math.isnan(value):
            want = 0
        elif value >= 2.0**63:
            want = (1 << 63) - 1
        elif value < -(2.0**63):
            want = 1 << 63
        else:
            want = int(value) & ((1 << 64) - 1)
        assert got == want


class TestSpecialValues:
    def test_inf_minus_inf_is_nan(self):
        inf = infinity(0, DOUBLE)
        assert classify(fp_sub(inf, inf, DOUBLE), DOUBLE) == NAN

    def test_zero_times_inf_is_nan(self):
        assert classify(
            fp_mul(zero(0, DOUBLE), infinity(1, DOUBLE), DOUBLE), DOUBLE
        ) == NAN

    def test_zero_over_zero_is_nan(self):
        assert classify(
            fp_div(zero(0, DOUBLE), zero(0, DOUBLE), DOUBLE), DOUBLE
        ) == NAN

    def test_x_over_zero_is_signed_inf(self):
        one = float_to_bits64(1.0)
        assert fp_div(one, zero(1, DOUBLE), DOUBLE) == infinity(1, DOUBLE)

    def test_exact_cancellation_is_positive_zero(self):
        one = float_to_bits64(1.0)
        assert fp_sub(one, one, DOUBLE) == zero(0, DOUBLE)

    def test_negative_zero_sum(self):
        nzero = zero(1, DOUBLE)
        assert fp_add(nzero, nzero, DOUBLE) == nzero

    def test_nan_propagates_everywhere(self):
        nan = quiet_nan(DOUBLE)
        one = float_to_bits64(1.0)
        for fn in (fp_add, fp_sub, fp_mul, fp_div):
            assert classify(fn(nan, one, DOUBLE), DOUBLE) == NAN
            assert classify(fn(one, nan, DOUBLE), DOUBLE) == NAN

    def test_f2i_specials(self):
        assert fp_f2i(quiet_nan(DOUBLE), DOUBLE) == 0
        assert fp_f2i(infinity(0, DOUBLE), DOUBLE) == (1 << 63) - 1
        assert fp_f2i(infinity(1, DOUBLE), DOUBLE) == 1 << 63

    def test_classify_all_classes(self):
        assert classify(zero(0, DOUBLE), DOUBLE) == ZERO
        assert classify(1, DOUBLE) == SUBNORMAL
        assert classify(float_to_bits64(1.0), DOUBLE) == NORMAL
        assert classify(infinity(0, DOUBLE), DOUBLE) == INF
        assert classify(quiet_nan(DOUBLE), DOUBLE) == NAN


class TestRounding:
    def test_round_to_nearest_even_tie(self):
        # 1 + 2^-53 is a tie; RNE keeps 1.0 (even mantissa).
        one = float_to_bits64(1.0)
        tiny = float_to_bits64(2.0**-53)
        assert fp_add(one, tiny, DOUBLE) == one

    def test_tie_rounds_up_to_even(self):
        # (1 + 2^-52) + 2^-53: tie, odd mantissa -> rounds up.
        value = float_to_bits64(1.0 + 2.0**-52)
        tiny = float_to_bits64(2.0**-53)
        expected = float_to_bits64((1.0 + 2.0**-52) + 2.0**-53)
        assert fp_add(value, tiny, DOUBLE) == expected

    def test_overflow_to_infinity(self):
        big = float_to_bits64(1.7e308)
        assert classify(fp_add(big, big, DOUBLE), DOUBLE) == INF

    def test_gradual_underflow(self):
        tiny = float_to_bits64(5e-324)  # smallest subnormal
        assert classify(fp_div(tiny, float_to_bits64(2.0), DOUBLE),
                        DOUBLE) == ZERO

    def test_subnormal_arithmetic(self):
        a = float_to_bits64(3e-324)
        b = float_to_bits64(3e-324)
        want = float_to_bits64(3e-324 + 3e-324)
        assert fp_add(a, b, DOUBLE) == want


class TestDispatch:
    def test_execute_matches_direct(self):
        a = float_to_bits64(2.5)
        b = float_to_bits64(1.5)
        assert execute(FpOp.ADD_D, a, b) == fp_add(a, b, DOUBLE)
        assert execute(FpOp.MUL_S, float_to_bits32(2.0),
                       float_to_bits32(3.0)) == float_to_bits32(6.0)

    def test_execute_conversions(self):
        assert execute(FpOp.I2F_D, 7) == float_to_bits64(7.0)
        assert execute(FpOp.F2I_D, float_to_bits64(-3.9)) == (
            (-3) & ((1 << 64) - 1)
        )
