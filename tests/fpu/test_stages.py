"""Tests for the vectorised stage-signal extraction (Fig. 3 decomposition)."""

import numpy as np
import pytest

from repro.fpu import ops, stages
from repro.fpu.formats import FpOp
from repro.utils.ieee754 import DOUBLE, floats_to_bits64


def _bits(values):
    return floats_to_bits64(np.asarray(values, dtype=np.float64))


class TestAddSubSignals:
    def test_carry_word_identity(self, rng):
        """carry word == big ^ addend ^ total for every element."""
        a = _bits(rng.uniform(-100, 100, size=200))
        b = _bits(rng.uniform(-100, 100, size=200))
        golden = ops.golden(FpOp.ADD_D, a, b)
        sig = stages.addsub_signals(FpOp.ADD_D, a, b, golden)
        # Spot invariant: carries only occur where the sum changed bits.
        assert sig.carry_word.dtype == np.uint64
        assert sig.valid.all()

    def test_effective_sub_detection(self):
        a = _bits([1.5, 1.5, -1.5, -1.5])
        b = _bits([2.5, -2.5, 2.5, -2.5])
        golden = ops.golden(FpOp.ADD_D, a, b)
        sig = stages.addsub_signals(FpOp.ADD_D, a, b, golden)
        assert list(sig.effective_sub) == [False, True, True, False]
        # SUB flips operand-b sign.
        golden_sub = ops.golden(FpOp.SUB_D, a, b)
        sig_sub = stages.addsub_signals(FpOp.SUB_D, a, b, golden_sub)
        assert list(sig_sub.effective_sub) == [True, False, False, True]

    def test_alignment_shift_is_exponent_gap(self):
        a = _bits([1.0, 1.0, 1.0])
        b = _bits([1.0, 0.25, 2.0**-20])
        golden = ops.golden(FpOp.ADD_D, a, b)
        sig = stages.addsub_signals(FpOp.ADD_D, a, b, golden)
        assert list(sig.align_shift) == [0, 2, 20]

    def test_cancellation_norm_shift(self):
        """Subtracting near-equal values costs a long normalisation."""
        a = _bits([1.0 + 2.0**-40])
        b = _bits([1.0])
        golden = ops.golden(FpOp.SUB_D, a, b)
        sig = stages.addsub_signals(FpOp.SUB_D, a, b, golden)
        assert sig.norm_shift[0] >= 39

    def test_no_cancellation_no_norm_shift(self):
        a = _bits([3.0])
        b = _bits([2.0])
        golden = ops.golden(FpOp.ADD_D, a, b)
        sig = stages.addsub_signals(FpOp.ADD_D, a, b, golden)
        assert sig.norm_shift[0] == 0

    def test_specials_invalid(self):
        a = _bits([float("nan"), float("inf"), 0.0, 1.0])
        b = _bits([1.0, 1.0, 0.0, 1.0])
        golden = ops.golden(FpOp.ADD_D, a, b)
        sig = stages.addsub_signals(FpOp.ADD_D, a, b, golden)
        assert list(sig.valid) == [False, False, False, True]

    def test_round_diff_limited_to_mantissa(self, rng):
        a = _bits(rng.uniform(-1e6, 1e6, size=500))
        b = _bits(rng.uniform(-1e6, 1e6, size=500))
        golden = ops.golden(FpOp.ADD_D, a, b)
        sig = stages.addsub_signals(FpOp.ADD_D, a, b, golden)
        assert (sig.round_diff >> np.uint64(52) == 0).all()

    def test_exponent_carry_on_binade_crossing(self):
        """2.0 - tiny crosses the binade: long exponent borrow ripple."""
        a = _bits([2.0])
        b = _bits([2.0**-30])
        golden = ops.golden(FpOp.SUB_D, a, b)
        sig = stages.addsub_signals(FpOp.SUB_D, a, b, golden)
        assert sig.exp_carry[0] != 0


class TestMulSignals:
    def test_csa_addends_sum_to_product(self, rng):
        """X + Y == siga * sigb: the carry-save invariant."""
        values_a = rng.uniform(1.0, 2.0, size=50)
        values_b = rng.uniform(1.0, 2.0, size=50)
        a, b = _bits(values_a), _bits(values_b)
        golden = ops.golden(FpOp.MUL_D, a, b)
        sig = stages.mul_signals(FpOp.MUL_D, a, b, golden)
        mant = np.uint64((1 << 52) - 1)
        siga = (a & mant) | np.uint64(1 << 52)
        sigb = (b & mant) | np.uint64(1 << 52)
        for i in range(a.size):
            product = int(siga[i]) * int(sigb[i])
            # Recover X + Y from the carry word identity: golden product
            # mantissa window must match the Python big-int product.
            expected_msb = product.bit_length() - 1
            assert sig.sigma[i] == expected_msb - 52

    def test_mantissa_window_matches_truncated_product(self, rng):
        values_a = rng.uniform(-50.0, 50.0, size=100)
        values_b = rng.uniform(-50.0, 50.0, size=100)
        a, b = _bits(values_a), _bits(values_b)
        golden = ops.golden(FpOp.MUL_D, a, b)
        sig = stages.mul_signals(FpOp.MUL_D, a, b, golden)
        # round_diff = golden ^ truncated: differs only when rounding
        # incremented, i.e. a (possibly rippling) low-bit region.
        assert (sig.round_diff >> np.uint64(52) == 0).all()
        # When no round-up happened, round_diff is exactly zero; this must
        # hold for at least a decent share of random multiplies.
        assert np.mean(sig.round_diff == 0) > 0.3

    def test_power_of_two_operand_has_no_cpa_chains(self):
        """Multiplying by 2^k activates a single partial product."""
        a = _bits([1.375])
        b = _bits([2.0])
        golden = ops.golden(FpOp.MUL_D, a, b)
        sig = stages.mul_signals(FpOp.MUL_D, a, b, golden)
        chain = sig.cpa_carry_lo & sig.cpa_prop_lo
        chain_hi = sig.cpa_carry_hi & sig.cpa_prop_hi
        assert chain[0] == 0 and chain_hi[0] == 0

    def test_specials_invalid(self):
        a = _bits([float("inf"), 1e308, 1.0])
        b = _bits([2.0, 1e308, 2.0])  # second overflows to inf
        golden = ops.golden(FpOp.MUL_D, a, b)
        sig = stages.mul_signals(FpOp.MUL_D, a, b, golden)
        assert list(sig.valid) == [False, False, True]


class TestDivSignals:
    def test_borrow_word_ordered_subtract(self, rng):
        a = _bits(rng.uniform(1.0, 100.0, size=50))
        b = _bits(rng.uniform(1.0, 100.0, size=50))
        golden = ops.golden(FpOp.DIV_D, a, b)
        sig = stages.div_signals(FpOp.DIV_D, a, b, golden)
        assert sig.valid.all()
        assert (sig.borrow_word >> np.uint64(53) == 0).all()

    def test_near_one_quotient_has_long_runs(self):
        """x / (x + ulp-ish) gives a quotient mantissa full of ones/zeros."""
        a = _bits([1.0])
        b = _bits([1.0 + 2.0**-40])
        golden = ops.golden(FpOp.DIV_D, a, b)
        sig = stages.div_signals(FpOp.DIV_D, a, b, golden)
        runs = int(sig.quotient_runs[0])
        assert runs.bit_count() > 30

    def test_divide_by_zero_invalid(self):
        a = _bits([1.0])
        b = _bits([0.0])
        golden = ops.golden(FpOp.DIV_D, a, b)
        sig = stages.div_signals(FpOp.DIV_D, a, b, golden)
        assert not sig.valid[0]


class TestConvSignals:
    def test_i2f_shift_depth_is_active_levels(self):
        """Depth = number of active shifter levels = popcount of the
        normalisation distance."""
        a = np.array([1, 1 << 40], dtype=np.int64).view(np.uint64)
        golden = ops.golden(FpOp.I2F_D, a)
        sig = stages.conv_signals(FpOp.I2F_D, a, golden)
        assert sig.valid.all()
        assert sig.shift_depth[0] == bin(64 - 1).count("1")
        assert sig.shift_depth[1] == bin(64 - 41).count("1")

    def test_i2f_zero_invalid(self):
        a = np.zeros(1, dtype=np.uint64)
        golden = ops.golden(FpOp.I2F_D, a)
        sig = stages.conv_signals(FpOp.I2F_D, a, golden)
        assert not sig.valid[0]

    def test_f2i_depth_nonnegative(self, rng):
        bits = ops.values_to_bits(FpOp.F2I_D, rng.uniform(-1e9, 1e9, 100))
        golden = ops.golden(FpOp.F2I_D, bits)
        sig = stages.conv_signals(FpOp.F2I_D, bits, golden)
        assert (sig.shift_depth >= 0).all()
