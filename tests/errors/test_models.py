"""Tests for the three error models and their shared interfaces."""

import numpy as np
import pytest

from repro.circuit.liberty import VR15, VR20
from repro.errors.base import (
    WorkloadProfile,
    pick_weighted_op,
)
from repro.errors.da import DaModel
from repro.errors.ia import IaModel, InstructionStats
from repro.errors.wa import TraceFaults, WaModel
from repro.fpu.formats import FpOp
from repro.utils.rng import RngStream


@pytest.fixture
def profile():
    return WorkloadProfile(
        name="synthetic",
        counts_by_op={FpOp.MUL_D: 6000, FpOp.ADD_D: 3000, FpOp.DIV_D: 1000},
        total_instructions=50_000,
    )


def _stream(tag="t"):
    return RngStream(99, tag)


class TestBase:
    def test_profile_fp_total(self, profile):
        assert profile.fp_instructions == 10_000
        assert set(profile.ops_present()) == {
            FpOp.MUL_D, FpOp.ADD_D, FpOp.DIV_D
        }

    def test_pick_weighted_op(self):
        weights = {FpOp.MUL_D: 0.0, FpOp.ADD_D: 1.0}
        for _ in range(10):
            assert pick_weighted_op(weights, _stream()) is FpOp.ADD_D

    def test_pick_weighted_none_when_all_zero(self):
        assert pick_weighted_op({FpOp.MUL_D: 0.0}, _stream()) is None


class TestDaModel:
    def test_fixed_ratio_workload_independent(self, profile):
        model = DaModel({"VR15": 1e-3, "VR20": 1e-2})
        other = WorkloadProfile("other", {FpOp.SUB_D: 5}, total_instructions=5)
        assert model.error_ratio(profile, VR15) == 1e-3
        assert model.error_ratio(other, VR15) == 1e-3

    def test_unknown_point_raises(self, profile):
        model = DaModel({"VR15": 1e-3})
        with pytest.raises(KeyError, match="VR20"):
            model.error_ratio(profile, VR20)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            DaModel({"VR15": 1.5})

    def test_plan_single_bit_flips(self, profile):
        model = DaModel({"VR20": 1e-3})
        plan = model.plan(profile, VR20, _stream())
        assert plan.injects
        for victim in plan.victims:
            assert bin(victim.bitmask).count("1") == 1
            assert 0 <= victim.index < profile.counts_by_op[victim.op]

    def test_victim_count_scales_with_ratio(self, profile):
        low = DaModel({"VR20": 1e-4}, injection_window=1024)
        high = DaModel({"VR20": 5e-2}, injection_window=1024)
        n_low = len(low.plan(profile, VR20, _stream()).victims)
        n_high = len(high.plan(profile, VR20, _stream()).victims)
        assert n_low == 1
        assert n_high == round(1024 * 5e-2)

    def test_plan_deterministic_per_stream(self, profile):
        model = DaModel({"VR20": 1e-2})
        p1 = model.plan(profile, VR20, _stream("a"))
        p2 = model.plan(profile, VR20, _stream("a"))
        assert p1.victims == p2.victims

    def test_victims_follow_instruction_mix(self, profile):
        model = DaModel({"VR20": 1e-2})
        counts = {op: 0 for op in profile.counts_by_op}
        for i in range(300):
            for victim in model.plan(profile, VR20, _stream(str(i))).victims:
                counts[victim.op] += 1
        assert counts[FpOp.MUL_D] > counts[FpOp.DIV_D]

    def test_feature_row(self):
        row = DaModel({"VR15": 1e-3}).feature_row()
        assert row["voltage aware"] and not row["workload aware"]


def _ia_model():
    ber_mul = np.zeros(64)
    ber_mul[30] = 0.9
    ber_mul[31] = 0.5
    ber_add = np.zeros(64)
    return IaModel({
        "VR20": {
            FpOp.MUL_D: InstructionStats(0.01, ber_mul, 1000),
            FpOp.ADD_D: InstructionStats(0.0, ber_add, 1000),
        },
        "VR15": {
            FpOp.MUL_D: InstructionStats(0.0, ber_mul * 0, 1000),
            FpOp.ADD_D: InstructionStats(0.0, ber_add, 1000),
        },
    })


class TestIaModel:
    def test_error_ratio_weighted_by_mix(self, profile):
        model = _ia_model()
        expected = (6000 * 0.01) / 10_000
        assert model.error_ratio(profile, VR20) == pytest.approx(expected)

    def test_zero_ratio_point_injects_nothing(self, profile):
        plan = _ia_model().plan(profile, VR15, _stream())
        assert not plan.injects

    def test_victims_target_error_prone_type(self, profile):
        model = _ia_model()
        for i in range(30):
            plan = model.plan(profile, VR20, _stream(str(i)))
            for victim in plan.victims:
                assert victim.op is FpOp.MUL_D

    def test_masks_follow_bit_distribution(self, profile):
        model = _ia_model()
        seen_bits = set()
        for i in range(60):
            for victim in model.plan(profile, VR20, _stream(str(i))).victims:
                assert victim.bitmask != 0
                for bit in range(64):
                    if victim.bitmask >> bit & 1:
                        seen_bits.add(bit)
        assert seen_bits <= {30, 31}
        assert 30 in seen_bits

    def test_roundtrip_dict(self):
        model = _ia_model()
        back = IaModel.from_dict(model.to_dict())
        st = back.stats["VR20"][FpOp.MUL_D]
        assert st.error_ratio == 0.01
        assert st.bit_probabilities[30] == 0.9

    def test_unknown_point(self, profile):
        with pytest.raises(KeyError):
            _ia_model().error_ratio(profile, type(VR15)("VR99", 0.5))


def _wa_model():
    faults = {
        "VR15": {},
        "VR20": {
            FpOp.MUL_D: TraceFaults(
                op=FpOp.MUL_D,
                indices=np.array([4, 6, 100], dtype=np.int64),
                bitmasks=np.array([0b11, 0b100, 0b1000], dtype=np.uint64),
                analysed=1000,
                ber=np.zeros(64),
            ),
        },
    }
    return WaModel("synthetic", faults, burst_window=8)


class TestWaModel:
    def test_error_ratio_from_trace(self, profile):
        model = _wa_model()
        assert model.error_ratio(profile, VR20) == pytest.approx(3 / 1000)
        assert model.error_ratio(profile, VR15) == 0.0

    def test_no_faults_no_injection(self, profile):
        plan = _wa_model().plan(profile, VR15, _stream())
        assert not plan.injects

    def test_replays_exact_masks(self, profile):
        model = _wa_model()
        valid = {(4, 0b11), (6, 0b100), (100, 0b1000)}
        for i in range(20):
            plan = model.plan(profile, VR20, _stream(str(i)))
            assert plan.injects
            for victim in plan.victims:
                assert (victim.index, victim.bitmask) in valid

    def test_burst_includes_neighbours(self, profile):
        """Victims 4 and 6 are within the burst window of each other."""
        model = _wa_model()
        saw_burst = False
        for i in range(40):
            plan = model.plan(profile, VR20, _stream(str(i)))
            indices = {v.index for v in plan.victims}
            if indices == {4, 6}:
                saw_burst = True
        assert saw_burst

    def test_burst_disabled(self, profile):
        model = _wa_model()
        model.burst_window = 0
        for i in range(20):
            plan = model.plan(profile, VR20, _stream(str(i)))
            assert len(plan.victims) == 1

    def test_roundtrip_dict(self):
        model = _wa_model()
        back = WaModel.from_dict(model.to_dict())
        tf = back.faults["VR20"][FpOp.MUL_D]
        assert list(tf.indices) == [4, 6, 100]
        assert list(tf.bitmasks) == [0b11, 0b100, 0b1000]
        assert back.workload == "synthetic"

    def test_table1_features(self):
        row = _wa_model().feature_row()
        assert row["workload aware"] and row["microarchitecture aware"]
