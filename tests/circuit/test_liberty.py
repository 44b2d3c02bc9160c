"""Tests for voltage-dependent delay characterisation."""

import pytest

from repro.circuit.liberty import (
    NOMINAL,
    OPERATING_POINTS,
    OperatingPoint,
    TECHNOLOGY,
    VR15,
    VR20,
    VoltageScalingModel,
    delay_factor,
)


class TestAlphaPowerLaw:
    def test_unity_at_nominal(self):
        assert TECHNOLOGY.delay_factor(TECHNOLOGY.nominal_voltage) == (
            pytest.approx(1.0)
        )

    def test_monotone_increasing_below_nominal(self):
        factors = [TECHNOLOGY.delay_factor(v)
                   for v in (1.1, 1.0, 0.9, 0.8, 0.7, 0.6)]
        assert factors == sorted(factors)

    def test_timing_wall_superlinear(self):
        """Equal voltage steps cost increasingly more delay near Vth."""
        d1 = TECHNOLOGY.delay_factor(1.0) - TECHNOLOGY.delay_factor(1.1)
        d2 = TECHNOLOGY.delay_factor(0.6) - TECHNOLOGY.delay_factor(0.7)
        assert d2 > d1

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            TECHNOLOGY.delay_factor(0.39)

    def test_nominal_must_exceed_threshold(self):
        with pytest.raises(ValueError):
            VoltageScalingModel(nominal_voltage=0.4, threshold_voltage=0.4)

    def test_paper_points_in_calibrated_band(self):
        """VR15 ~ +20% delay, VR20 ~ +31% (DESIGN.md calibration)."""
        f15 = TECHNOLOGY.delay_factor(VR15.voltage)
        f20 = TECHNOLOGY.delay_factor(VR20.voltage)
        assert 1.15 < f15 < 1.25
        assert 1.25 < f20 < 1.40
        assert f20 > f15


class TestOperatingPoints:
    def test_vr_voltages(self):
        assert VR15.voltage == pytest.approx(1.1 * 0.85)
        assert VR20.voltage == pytest.approx(1.1 * 0.80)
        assert NOMINAL.voltage == pytest.approx(1.1)

    def test_names(self):
        assert VR15.name == "VR15"
        assert VR20.name == "VR20"
        assert set(OPERATING_POINTS) == {"NOM", "VR15", "VR20"}

    def test_operating_point_factory_names(self):
        point = TECHNOLOGY.operating_point(0.10)
        assert point.name == "VR10"
        assert point.voltage == pytest.approx(0.99)

    def test_operating_point_rejects_subthreshold(self):
        with pytest.raises(ValueError):
            TECHNOLOGY.operating_point(0.70)

    def test_delay_factor_helper(self):
        assert delay_factor(VR15) == pytest.approx(
            TECHNOLOGY.delay_factor(VR15.voltage)
        )


class TestPowerModel:
    def test_v_squared(self):
        assert TECHNOLOGY.power_factor(1.1) == pytest.approx(1.0)
        assert TECHNOLOGY.power_factor(0.88) == pytest.approx(0.64)

    def test_vr20_power_saving_is_36_percent(self):
        """Pure V^2 component of the paper's k-means saving figure."""
        saving = 1.0 - TECHNOLOGY.power_factor(VR20.voltage)
        assert saving == pytest.approx(0.36)
