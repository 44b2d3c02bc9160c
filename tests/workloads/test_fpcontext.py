"""Tests for the FP interposition context."""

import numpy as np
import pytest

from repro.fpu.formats import FpOp
from repro.workloads.base import (
    FPContext,
    GuestFpException,
    GuestTimeout,
)

from tests.conftest import op_counts


class TestCountingAndResults:
    def test_elementwise_counting(self):
        ctx = FPContext()
        ctx.add(np.ones(10), np.ones(10))
        ctx.mul(2.0, 3.0)
        assert op_counts(ctx)[FpOp.ADD_D] == 10
        assert op_counts(ctx)[FpOp.MUL_D] == 1
        assert ctx.ops_executed == 11

    def test_results_are_native_ieee(self, rng):
        ctx = FPContext()
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        assert np.array_equal(ctx.add(a, b), a + b)
        assert np.array_equal(ctx.mul(a, b), a * b)
        assert np.array_equal(ctx.sub(a, b), a - b)
        assert np.array_equal(ctx.div(a, b), a / b)

    def test_broadcasting(self):
        ctx = FPContext()
        out = ctx.mul(np.ones((3, 4)), 2.0)
        assert out.shape == (3, 4)
        assert op_counts(ctx)[FpOp.MUL_D] == 12

    def test_scalar_in_scalar_out(self):
        ctx = FPContext()
        out = ctx.add(1.5, 2.5)
        assert float(out) == 4.0

    def test_single_precision_rounds(self):
        ctx = FPContext()
        out = ctx.add_s(1.0, 2.0**-30)
        assert float(out) == 1.0
        assert op_counts(ctx)[FpOp.ADD_S] == 1

    def test_f2i_truncates(self):
        ctx = FPContext()
        out = ctx.f2i(np.array([3.7, -3.7]))
        assert list(out) == [3, -3]
        assert op_counts(ctx)[FpOp.F2I_D] == 2

    def test_i2f_exact(self):
        ctx = FPContext()
        assert list(ctx.i2f(np.array([5, -5]))) == [5.0, -5.0]

    def test_tree_sum_matches_numpy(self, rng):
        ctx = FPContext()
        values = rng.normal(size=257)
        assert ctx.sum(values) == pytest.approx(values.sum(), rel=1e-12)
        assert op_counts(ctx)[FpOp.ADD_D] == 256

    def test_dot(self, rng):
        ctx = FPContext()
        a, b = rng.normal(size=64), rng.normal(size=64)
        assert ctx.dot(a, b) == pytest.approx(np.dot(a, b), rel=1e-12)


class TestCorruption:
    def test_exact_bit_flip_at_victim_index(self):
        mask = 1 << 51
        ctx = FPContext(corruption={FpOp.ADD_D: {3: mask}})
        a = np.arange(8, dtype=float)
        out = ctx.add(a, a)
        expected = a + a
        flipped = np.float64(
            np.uint64(np.float64(expected[3]).view(np.uint64))
            ^ np.uint64(mask)
        ).view() if False else None
        raw = (a + a).view(np.uint64).copy()
        raw[3] ^= np.uint64(mask)
        assert np.array_equal(out.view(np.uint64), raw)
        assert ctx.corrupted_events == 1

    def test_victim_across_batches(self):
        ctx = FPContext(corruption={FpOp.MUL_D: {5: 1}})
        ctx.mul(np.ones(3), np.ones(3))   # indices 0-2
        out = ctx.mul(np.ones(4), np.ones(4))  # indices 3-6; victim at 5
        raw = out.view(np.uint64)
        assert raw[2] == np.float64(1.0).view(np.uint64) ^ np.uint64(1)
        assert ctx.corrupted_events == 1

    def test_victim_outside_stream_never_fires(self):
        ctx = FPContext(corruption={FpOp.MUL_D: {100: 1}})
        ctx.mul(np.ones(10), np.ones(10))
        assert ctx.corrupted_events == 0

    def test_single_precision_corruption(self):
        ctx = FPContext(corruption={FpOp.MUL_S: {0: 1 << 22}})
        out = ctx.mul_s(np.array([1.5]), np.array([2.0]))
        assert float(out[0]) != 3.0
        assert ctx.corrupted_events == 1

    def test_conversion_corruption(self):
        ctx = FPContext(corruption={FpOp.F2I_D: {0: 1 << 10}})
        out = ctx.f2i(np.array([2.0]))
        assert out[0] == 2 ^ (1 << 10)

    def test_victims_passed_after_every_last_victim(self):
        ctx = FPContext(corruption={FpOp.MUL_D: {3: 1, 7: 1},
                                    FpOp.ADD_D: {2: 1}, FpOp.SUB_D: {}})
        assert not ctx.victims_passed()
        ctx.mul(np.ones(8), np.ones(8))  # MUL_D counter 8 > 7
        assert not ctx.victims_passed()
        ctx.add(np.ones(2), np.ones(2))  # ADD_D counter 2, victim 2 ahead
        assert not ctx.victims_passed()
        ctx.add(1.0, 1.0)
        assert ctx.victims_passed()
        counts = [{FpOp.MUL_D: 7, FpOp.ADD_D: 3}.get(op, 0) for op in FpOp]
        ctx.restore_position(counts, 10)
        assert not ctx.victims_passed()
        assert FPContext().victims_passed()


class TestBudgetAndTraps:
    def test_budget_timeout(self):
        ctx = FPContext(op_budget=100)
        ctx.add(np.ones(60), np.ones(60))
        with pytest.raises(GuestTimeout):
            ctx.add(np.ones(60), np.ones(60))

    def test_trap_only_after_corruption(self):
        ctx = FPContext(trap_nonfinite=True)
        # FP warnings are guest behaviour; like CampaignRunner, the
        # caller owns the errstate.
        with np.errstate(all="ignore"):
            out = ctx.div(1.0, 0.0)  # inf, but nothing armed yet
        assert np.isinf(out)

    def test_trap_fires_after_corruption(self):
        # 3.0 has biased exponent 0x400; XOR 0x3FF sets all exponent bits:
        # the corrupted result is infinite and the guest traps.
        ctx = FPContext(trap_nonfinite=True,
                        corruption={FpOp.MUL_D: {0: 0x3FF << 52}})
        with pytest.raises(GuestFpException):
            ctx.mul(np.array([1.5]), np.array([2.0]))


class TestTraceRecording:
    def test_records_operand_bits(self):
        ctx = FPContext(record_trace=True)
        a = np.array([1.5, 2.5])
        b = np.array([3.5, 4.5])
        ctx.mul(a, b)
        profile = ctx.profile("t", ops_per_fp=4.0)
        ta, tb = profile.trace_by_op[FpOp.MUL_D]
        assert np.array_equal(ta, a.view(np.uint64))
        assert np.array_equal(tb, b.view(np.uint64))

    def test_trace_cap_respected(self):
        ctx = FPContext(record_trace=True, trace_cap=5)
        ctx.add(np.ones(10), np.ones(10))
        profile = ctx.profile("t", ops_per_fp=0.0)
        ta, _ = profile.trace_by_op[FpOp.ADD_D]
        assert ta.size == 5
        assert profile.counts_by_op[FpOp.ADD_D] == 10  # counts uncapped

    def test_profile_total_instructions(self):
        ctx = FPContext(record_trace=True)
        ctx.add(np.ones(100), np.ones(100))
        profile = ctx.profile("t", ops_per_fp=4.0)
        assert profile.total_instructions == 500

    def test_op_sequence_run_length(self):
        ctx = FPContext()
        ctx.add(np.ones(5), np.ones(5))
        ctx.add(np.ones(5), np.ones(5))
        ctx.mul(np.ones(2), np.ones(2))
        assert ctx.op_sequence == [(FpOp.ADD_D, 10), (FpOp.MUL_D, 2)]
        assert ctx.fp_op_sequence(limit=11) == [FpOp.ADD_D] * 10 + [FpOp.MUL_D]
