"""Vectorised golden execution vs the scalar softfloat reference."""

import numpy as np
import pytest

from repro.fpu import ops, softfloat
from repro.fpu.formats import ALL_OPS, FpOp


def _random_patterns(rng, op, n=300):
    if op.kind == "i2f":
        width = 64 if op.is_double else 32
        a = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
        return a, None
    width = op.fmt.width
    a = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
    if not op.has_two_operands:
        return a, None
    b = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
    return a, b


class TestVectorMatchesScalar:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    def test_agreement(self, op, rng):
        a, b = _random_patterns(rng, op)
        vector = ops.golden(op, a, b)
        for i in range(a.size):
            scalar = softfloat.execute(
                op, int(a[i]), int(b[i]) if b is not None else 0
            )
            got = int(vector[i])
            if op.kind in ("add", "sub", "mul", "div"):
                fmt = op.fmt
                g_nan = softfloat.classify(got & fmt.mask, fmt) == "nan"
                s_nan = softfloat.classify(scalar, fmt) == "nan"
                if g_nan and s_nan:
                    continue
            assert got == scalar, f"{op} sample {i}"


class TestConversionSemantics:
    def test_f2i_double_truncates_toward_zero(self):
        bits = ops.values_to_bits(FpOp.F2I_D, np.array([3.9, -3.9, 0.5]))
        out = ops.golden(FpOp.F2I_D, bits).view(np.int64)
        assert list(out) == [3, -3, 0]

    def test_f2i_double_saturates(self):
        bits = ops.values_to_bits(FpOp.F2I_D, np.array([1e300, -1e300]))
        out = ops.golden(FpOp.F2I_D, bits).view(np.int64)
        assert out[0] == np.iinfo(np.int64).max
        assert out[1] == np.iinfo(np.int64).min

    def test_f2i_nan_is_zero(self):
        bits = ops.values_to_bits(FpOp.F2I_D, np.array([float("nan")]))
        assert ops.golden(FpOp.F2I_D, bits)[0] == 0

    def test_f2i_single_saturates_to_int32(self):
        bits = ops.values_to_bits(FpOp.F2I_S, np.array([1e20, -1e20]))
        out = ops.golden(FpOp.F2I_S, bits)
        low = out.astype(np.uint32).view(np.int32)
        assert low[0] == np.iinfo(np.int32).max
        assert low[1] == np.iinfo(np.int32).min

    def test_i2f_double_exact_small(self):
        a = np.array([0, 1, -1, 123456], dtype=np.int64).view(np.uint64)
        out = ops.golden(FpOp.I2F_D, a).view(np.float64)
        assert list(out) == [0.0, 1.0, -1.0, 123456.0]

    def test_missing_operand_rejected(self):
        with pytest.raises(ValueError):
            ops.golden(FpOp.ADD_D, np.zeros(1, dtype=np.uint64))


class TestValueEncoding:
    def test_values_to_bits_roundtrip_double(self, rng):
        values = rng.normal(size=100)
        bits = ops.values_to_bits(FpOp.ADD_D, values)
        assert np.array_equal(bits.view(np.float64), values)

    def test_values_to_bits_single_rounds(self):
        bits = ops.values_to_bits(FpOp.ADD_S, np.array([1.0 + 2**-30]))
        assert bits.astype(np.uint32).view(np.float32)[0] == 1.0

    def test_nan_detection_roundtrip(self):
        bits = ops.values_to_bits(FpOp.MUL_D, np.array([float("nan"), 1.0]))
        assert list(np.isnan(bits.view(np.float64))) == [True, False]
