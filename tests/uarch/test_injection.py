"""Tests for microarchitectural masking and the injector."""

import pytest

from repro.errors.base import InjectionPlan, Victim
from repro.fpu.formats import FpOp
from repro.uarch.core import OoOCore
from repro.uarch.injector import MicroArchInjector
from repro.uarch.masking import MaskingProfile
from repro.uarch.trace import synthesize_trace
from repro.utils.rng import RngStream


@pytest.fixture(scope="module")
def schedule():
    fp = [FpOp.MUL_D] * 3000
    return OoOCore().simulate(synthesize_trace("x", fp, seed=2))


def _plan(*victims):
    return InjectionPlan(model="T", point="VR20", victims=list(victims))


class TestMaskingProfile:
    def test_from_schedule(self, schedule):
        profile = MaskingProfile.from_schedule(schedule)
        assert profile.wrong_path_rate == schedule.wrong_path_fp_fraction
        assert profile.dead_write_rate == schedule.dead_fp_fraction

    def test_total_rate_combines(self):
        profile = MaskingProfile(wrong_path_rate=0.1, dead_write_rate=0.2)
        assert profile.total_rate == pytest.approx(1 - 0.9 * 0.8)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            MaskingProfile(wrong_path_rate=1.5, dead_write_rate=0.0)

    def test_deterministic_per_stream(self):
        profile = MaskingProfile(wrong_path_rate=0.5, dead_write_rate=0.0)
        victim = Victim(FpOp.MUL_D, 5, 1)
        a = profile.resolve(victim, RngStream(1, "x"))[0]
        b = profile.resolve(victim, RngStream(1, "x"))[0]
        assert a == b

    def test_zero_rates_never_mask(self):
        profile = MaskingProfile(0.0, 0.0)
        victim = Victim(FpOp.MUL_D, 5, 1)
        assert not any(
            profile.resolve(victim, RngStream(i, "x"))[0] for i in range(50)
        )

    def test_full_rate_always_masks(self):
        profile = MaskingProfile(1.0, 0.0)
        victim = Victim(FpOp.MUL_D, 5, 1)
        assert all(
            profile.resolve(victim, RngStream(i, "x"))[0] for i in range(20)
        )


class TestInjector:
    def test_placement_timestamps(self, schedule):
        injector = MicroArchInjector(schedule, MaskingProfile(0.0, 0.0))
        plan = _plan(Victim(FpOp.MUL_D, 100, 0b1))
        placed = injector.place(plan, RngStream(1, "r"))
        assert len(placed.placements) == 1
        assert placed.placements[0].cycle == schedule.cycle_of_fp(100)
        assert not placed.placements[0].uarch_masked

    def test_masked_victims_excluded_from_corruption(self, schedule):
        injector = MicroArchInjector(schedule, MaskingProfile(1.0, 0.0))
        plan = _plan(Victim(FpOp.MUL_D, 100, 0b1))
        placed = injector.place(plan, RngStream(1, "r"))
        assert placed.masked_count == 1
        assert placed.corruption_map() == {}

    def test_corruption_map_merges_xor(self, schedule):
        injector = MicroArchInjector(schedule, MaskingProfile(0.0, 0.0))
        plan = _plan(
            Victim(FpOp.MUL_D, 7, 0b0011),
            Victim(FpOp.MUL_D, 7, 0b0110),
            Victim(FpOp.ADD_D, 9, 0b1000),
        )
        cmap = injector.place(plan, RngStream(1, "r")).corruption_map()
        assert cmap[FpOp.MUL_D][7] == 0b0101
        assert cmap[FpOp.ADD_D][9] == 0b1000

    def test_effective_list(self, schedule):
        injector = MicroArchInjector(schedule, MaskingProfile(0.0, 0.0))
        victims = [Victim(FpOp.MUL_D, i, 1) for i in range(5)]
        placed = injector.place(_plan(*victims), RngStream(1, "r"))
        assert placed.effective == victims
