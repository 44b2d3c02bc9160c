"""Tests for the seven Table II benchmarks."""

import numpy as np
import pytest

from repro.fpu.formats import FpOp
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.base import FPContext, GuestCrash
from repro.workloads.mg import _shift

from tests.conftest import op_counts

ALL_NAMES = sorted(WORKLOADS)


class TestRegistry:
    def test_table2_benchmarks_plus_bt(self):
        assert set(WORKLOADS) == {
            "sobel", "cg", "kmeans", "srad_v1", "hotspot", "is", "mg", "bt"
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            make_workload("linpack")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            make_workload("sobel", scale="galactic")


@pytest.mark.parametrize("name", ALL_NAMES)
class TestGoldenBehaviour:
    def test_deterministic_output(self, name):
        wl = make_workload(name, scale="tiny", seed=3)
        out1 = wl.run(wl.make_context())
        out2 = wl.run(wl.make_context())
        assert wl.outputs_equal(out1, out2)

    def test_golden_equals_itself(self, name):
        wl = make_workload(name, scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        assert wl.outputs_equal(out, out)

    def test_executes_fp_through_context(self, name):
        wl = make_workload(name, scale="tiny", seed=3)
        ctx = wl.make_context()
        wl.run(ctx)
        assert ctx.ops_executed > 500

    def test_input_descriptor_set(self, name):
        wl = make_workload(name, scale="tiny", seed=3)
        assert wl.input_descriptor

    def test_seeds_change_input(self, name):
        a = make_workload(name, scale="tiny", seed=1)
        b = make_workload(name, scale="tiny", seed=2)
        out_a = a.run(a.make_context())
        out_b = b.run(b.make_context())
        # Different seeds -> different inputs -> different outputs.
        assert not a.outputs_equal(out_a, out_b)

    def test_scales_increase_work(self, name):
        tiny = make_workload(name, scale="tiny", seed=3)
        small = make_workload(name, scale="small", seed=3)
        ctx_t, ctx_s = tiny.make_context(), small.make_context()
        tiny.run(ctx_t)
        small.run(ctx_s)
        assert ctx_s.ops_executed > ctx_t.ops_executed


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "kmeans"])
class TestCorruptionSensitivity:
    def test_large_corruption_changes_output_or_crashes(self, name):
        """Flipping the sign bit of several mid-stream multiplies must be
        visible (SDC or crash).  k-means is excluded: its convergence
        basin masks isolated corruptions by design (the paper's AVM = 0
        finding); see TestKmeansTolerance."""
        wl = make_workload(name, scale="tiny", seed=3)
        golden_ctx = wl.make_context()
        golden = wl.run(golden_ctx)
        main_op = FpOp.MUL_D
        mul_count = op_counts(golden_ctx)[main_op]
        mask = 1 << 63
        outcomes = []
        for fraction in (0.35, 0.6, 0.9):
            index = max(0, int(fraction * mul_count) - 1)
            ctx = wl.make_context(corruption={main_op: {index: mask}})
            try:
                observed = wl.run(ctx)
            except Exception:
                outcomes.append("crash")
                continue
            outcomes.append(
                "masked" if wl.outputs_equal(golden, observed) else "sdc"
            )
        assert set(outcomes) & {"sdc", "crash"}, outcomes

    def test_lsb_corruption_often_tolerated_or_visible(self, name):
        """Mantissa-LSB flips must never corrupt the harness itself."""
        wl = make_workload(name, scale="tiny", seed=3)
        golden = wl.run(wl.make_context())
        ctx = wl.make_context(corruption={FpOp.ADD_D: {10: 1}})
        try:
            observed = wl.run(ctx)
        except Exception:
            return  # crash is an acceptable guest outcome
        assert wl.outputs_equal(golden, golden)
        wl.outputs_equal(golden, observed)  # must not raise


class TestBenchmarkSpecifics:
    def test_sobel_output_is_image(self):
        wl = make_workload("sobel", scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        assert out.dtype == np.uint8
        assert out.ndim == 2

    def test_cg_output_is_eigen_estimate(self):
        wl = make_workload("cg", scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        assert np.isfinite(out)
        assert 5.0 < out < 15.0  # shift 10 +- smallish correction

    def test_cg_tolerance_classification(self):
        wl = make_workload("cg", scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        assert wl.outputs_equal(out, out + out * 1e-13)
        assert not wl.outputs_equal(out, out + max(1e-6, abs(out) * 1e-6))

    def test_kmeans_returns_rounded_centroids(self):
        wl = make_workload("kmeans", scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        assert out.shape == (wl.n_clusters, wl.dims)
        assert np.array_equal(out, np.round(out, 4))

    def test_hotspot_heats_up(self):
        wl = make_workload("hotspot", scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        assert (out > 80.0 - 1e-9).all()
        assert out.max() > 80.05

    def test_is_crashes_on_out_of_range_bucket(self):
        wl = make_workload("is", scale="tiny", seed=3)
        # Sign-flip the final scaling multiply: a negative key falls
        # outside the bucket table (the benchmark's Crash mechanism).
        ctx = wl.make_context()
        wl.run(ctx)
        mul_count = op_counts(ctx)[FpOp.MUL_D]
        bad = wl.make_context(
            corruption={FpOp.MUL_D: {mul_count - 3: 1 << 63}}
        )
        with pytest.raises(GuestCrash):
            wl.run(bad)

    def test_is_randlc_split_corruption_is_self_correcting(self):
        """The randlc recurrence recomputes a*x mod 2^46 from a redundant
        23-bit split: corrupting the x1 extraction multiply is absorbed
        exactly — a genuine algorithmic-masking mechanism."""
        wl = make_workload("is", scale="tiny", seed=3)
        golden = wl.run(wl.make_context())
        ctx = wl.make_context(corruption={FpOp.MUL_D: {3: 1 << 62}})
        observed = wl.run(ctx)
        assert ctx.corrupted_events == 1
        assert wl.outputs_equal(golden, observed)

    def test_is_verifies_sortedness(self):
        wl = make_workload("is", scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        keys = out[: wl.n_keys]
        assert (np.diff(keys) >= 0).all()

    def test_mg_reduces_residual(self):
        wl = make_workload("mg", scale="tiny", seed=3)
        norm = wl.run(wl.make_context())
        rhs_norm = float((wl.v ** 2).sum())
        assert 0.0 <= norm < rhs_norm

    @pytest.mark.parametrize("scale", ["tiny", "small", "paper"])
    def test_mg_shift_equals_roll(self, scale):
        # Every grid of the V-cycle, from the scale's finest to 2^3.
        n = make_workload("mg", scale=scale, seed=3).n
        rng = np.random.default_rng(3)
        while n >= 2:
            u = rng.standard_normal((n, n, n))
            for axis in range(3):
                for step in (1, -1):
                    assert np.array_equal(_shift(u, step, axis),
                                          np.roll(u, step, axis=axis))
            n //= 2

    def test_srad_smooths_image(self):
        wl = make_workload("srad_v1", scale="tiny", seed=3)
        out = wl.run(wl.make_context())
        assert np.isfinite(out).all()
        assert np.var(out) < np.var(wl.image)

    def test_kmeans_tolerates_isolated_corruptions(self):
        """Paper Section V.C: k-means is highly error-tolerant — isolated
        corruptions are re-converged away by the next Lloyd iteration."""
        wl = make_workload("kmeans", scale="tiny", seed=3)
        golden = wl.run(wl.make_context())
        masked = 0
        for index in (50, 150, 250):
            ctx = wl.make_context(
                corruption={FpOp.MUL_D: {index: 1 << 40}}
            )
            observed = wl.run(ctx)
            if wl.outputs_equal(golden, observed):
                masked += 1
        assert masked >= 2

    def test_trap_flags_match_hpc_builds(self):
        assert make_workload("cg", scale="tiny").trap_nonfinite
        assert make_workload("mg", scale="tiny").trap_nonfinite
        assert not make_workload("sobel", scale="tiny").trap_nonfinite
        assert not make_workload("is", scale="tiny").trap_nonfinite
