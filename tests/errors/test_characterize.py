"""Tests for the model-development phase (characterisation drivers)."""

import numpy as np
import pytest

from repro.circuit.liberty import VR15, VR20
from repro.circuit.bitsim import AUTO_NUMPY_LANES
from repro.circuit.builder import build_adder
from repro.circuit.sta import StaticTimingAnalysis
from repro.errors import (
    characterize_da,
    characterize_gate,
    random_operands,
    random_vector_words,
)
from repro.errors import characterize as characterize_module
from repro.fpu.formats import ALL_OPS, FpOp
from repro.utils.rng import RngStream

from tests.circuit.event_reference import DynamicTimingAnalysis


class TestRandomOperands:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    def test_shapes(self, op):
        a, b = random_operands(op, 100, RngStream(1, op.value))
        assert a.shape == (100,)
        if op.has_two_operands:
            assert b.shape == (100,)
        else:
            assert b is None

    def test_uniform_values_cluster_exponents(self):
        """Uniform value distribution: exponents concentrate near the top
        of the range (the property that excites adder chains)."""
        a, _ = random_operands(FpOp.ADD_D, 5000, RngStream(1, "x"))
        exponents = (a >> np.uint64(52)) & np.uint64(0x7FF)
        spread = int(exponents.max()) - int(np.percentile(exponents, 5))
        assert spread < 64

    def test_i2f_single_truncation_bounds(self):
        """Regression: i2f.s encodings are 32-bit two's complement.

        Drawn values span [-2**30, 2**30), so after truncation to the
        32-bit operand register the encodings land in
        [0, 2**30) | [2**32 - 2**30, 2**32) — never in between, and
        never with the high uint64 word set.
        """
        a, b = random_operands(FpOp.I2F_S, 20_000, RngStream(3, "i2f-reg"))
        assert b is None
        assert a.dtype == np.uint64
        assert int(a.max()) < (1 << 32)
        low = a < (1 << 30)
        high = a >= ((1 << 32) - (1 << 30))
        assert np.all(low | high)
        assert low.any() and high.any()
        # The encoding is exactly v mod 2**32 of the signed values.
        signed = np.where(high, a.astype(np.int64) - (1 << 32),
                          a.astype(np.int64))
        assert int(signed.min()) >= -(1 << 30)
        assert int(signed.max()) < (1 << 30)

    def test_i2f_double_value_range(self):
        """i2f.d draws full-width signed integers in [-2**62, 2**62)."""
        a, b = random_operands(FpOp.I2F_D, 20_000, RngStream(3, "i2f-d"))
        assert b is None
        assert a.dtype == np.uint64
        signed = a.view(np.int64)
        assert int(signed.min()) >= -(1 << 62)
        assert int(signed.max()) < (1 << 62)
        assert (signed < 0).any() and (signed > 0).any()


class TestCharacterizeIa(object):
    def test_structure_and_paper_shape(self, ia_model):
        stats15 = ia_model.stats["VR15"]
        stats20 = ia_model.stats["VR20"]
        assert set(stats15) == set(ALL_OPS)
        # Only mul/sub fail at VR15; mul most error-prone at VR20.
        for op, st in stats15.items():
            if op not in (FpOp.MUL_D, FpOp.SUB_D):
                assert st.error_ratio == 0.0, op
        assert stats20[FpOp.MUL_D].error_ratio == max(
            st.error_ratio for st in stats20.values()
        )

    def test_bit_probabilities_are_conditional(self, ia_model):
        st = ia_model.stats["VR20"][FpOp.MUL_D]
        assert st.error_ratio > 0
        assert st.bit_probabilities.max() <= 1.0
        assert st.bit_probabilities.sum() > 0
        # Unconditional BER = ratio * conditional.
        assert np.allclose(st.unconditional_ber(),
                           st.error_ratio * st.bit_probabilities)


class TestCharacterizeDa:
    def test_fixed_ratios_in_paper_decades(self, da_model):
        """DA ER should land near the paper's 1e-3 (VR15) / 1e-2 (VR20)."""
        er15 = da_model.fixed_error_ratios["VR15"]
        er20 = da_model.fixed_error_ratios["VR20"]
        assert 0.0 <= er15 < 5e-3
        assert 1e-3 < er20 < 5e-2
        assert er20 > er15

    def test_requires_nonempty_traces(self):
        from repro.errors.base import WorkloadProfile

        with pytest.raises(ValueError):
            characterize_da([WorkloadProfile("empty")], [VR15])


class TestCharacterizeWa:
    def test_ber_arrays_present(self, wa_models, tiny_profiles):
        model = wa_models["srad_v1"]
        for point_name, per_op in model.faults.items():
            for op, tf in per_op.items():
                assert tf.ber is not None
                assert tf.ber.shape == (op.fmt.width,)
                assert tf.indices.shape == tf.bitmasks.shape

    def test_hotspot_error_free_at_vr15(self, wa_models, tiny_profiles):
        """The paper's headline observation."""
        model = wa_models["hotspot"]
        profile = tiny_profiles["hotspot"]
        assert model.error_ratio(profile, VR15) == 0.0
        assert model.error_ratio(profile, VR20) > 0.0

    def test_workloads_differ(self, wa_models, tiny_profiles):
        """Fig. 8: different workloads exhibit vastly different ratios."""
        ratios = {
            name: wa_models[name].error_ratio(tiny_profiles[name], VR20)
            for name in wa_models
        }
        assert max(ratios.values()) > 10 * min(
            v for v in ratios.values() if v > 0
        )

    def test_masks_match_trace_dta(self, wa_models, tiny_profiles, fpu):
        """Stored masks are exactly the DTA masks of the stored indices."""
        model = wa_models["srad_v1"]
        profile = tiny_profiles["srad_v1"]
        for op, tf in model.faults["VR20"].items():
            if tf.count == 0:
                continue
            a, b = profile.trace_by_op[op]
            take = min(tf.indices.max() + 1, a.size)
            batch = fpu.dta(op, a[:take], b[:take] if b is not None else None,
                            [VR20])
            masks = batch.masks["VR20"]
            for idx, mask in zip(tf.indices[:10], tf.bitmasks[:10]):
                assert masks[idx] == mask
            break


class TestCharacterizeGate:
    @pytest.fixture(scope="class")
    def adder(self):
        return build_adder(8)

    @pytest.fixture(scope="class")
    def clock(self, adder):
        return StaticTimingAnalysis(adder).critical_delay() * 0.8

    def test_backends_agree_exactly(self, adder, clock, monkeypatch):
        kwargs = dict(clock_ps=clock, delay_factor=1.3, samples=384,
                      seed=13, lanes=100)
        fast = characterize_gate(adder, **kwargs)
        # The same stream, chunking and reduction, with the event
        # reference standing in for the bit-parallel engine.
        monkeypatch.setattr(characterize_module, "BitParallelTimingAnalysis",
                            DynamicTimingAnalysis)
        event = characterize_gate(adder, **kwargs)
        assert event.faulty == fast.faulty
        assert np.array_equal(event.bit_counts, fast.bit_counts)
        assert fast.worst_settle_ps <= event.worst_settle_ps + 1e-9
        assert event.error_ratio == event.faulty / event.analysed

    def test_deterministic_in_seed(self, adder, clock):
        first = characterize_gate(adder, clock_ps=clock, delay_factor=1.4,
                                  samples=256, seed=5)
        second = characterize_gate(adder, clock_ps=clock, delay_factor=1.4,
                                   samples=256, seed=5)
        assert first.faulty == second.faulty
        assert np.array_equal(first.bit_counts, second.bit_counts)

    def test_lane_chunking_invariant(self, adder, clock):
        """Any lane-chunk geometry yields the identical statistics."""
        kwargs = dict(clock_ps=clock, delay_factor=1.5, samples=300, seed=9)
        results = [characterize_gate(adder, lanes=lanes, **kwargs)
                   for lanes in (37, 64, 300, AUTO_NUMPY_LANES)]
        results.append(characterize_gate(adder, **kwargs))
        for other in results[1:]:
            assert other.faulty == results[0].faulty
            assert np.array_equal(other.bit_counts, results[0].bit_counts)
            assert other.worst_settle_ps == results[0].worst_settle_ps

    def test_vector_stream_is_backend_independent(self, adder):
        one = random_vector_words(adder, 65, RngStream(3, "s"))
        two = random_vector_words(adder, 65, RngStream(3, "s"))
        assert one == two
        assert len(one) == len(adder.inputs)

    def test_rejects_bad_budgets(self, adder, clock):
        with pytest.raises(ValueError):
            characterize_gate(adder, clock_ps=clock, delay_factor=1.3,
                              samples=0)
        with pytest.raises(ValueError):
            characterize_gate(adder, clock_ps=clock, delay_factor=1.3,
                              samples=8, lanes=0)
        with pytest.raises(ValueError, match="timing backend"):
            characterize_gate(adder, clock_ps=clock, delay_factor=1.3,
                              samples=8, backend="event")
