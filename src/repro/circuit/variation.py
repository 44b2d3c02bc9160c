"""Additional delay-increase sources (the paper's future-work section).

Section VI: "the proposed tool can be easily extended to assess timing
errors due to several sources of delay increase such as temperature
variations, overclocking, transistor aging, and process fluctuations."
This module supplies those sources as composable delay factors; because
the whole injection stack keys on a slack threshold th = 1 - 1/f, any
combination of factors drops straight into
:class:`repro.fpu.timing.TimingModel` through the stress-point helper.

Models (standard first-order forms):

- **Aging** (NBTI/HCI): threshold-voltage shift grows with a power law of
  stress time, dVth(t) = A * t^n (n ~ 0.2), which raises delay through
  the alpha-power law.
- **Temperature**: in the super-threshold regime mobility degradation
  dominates: delay grows roughly linearly with temperature.
- **Overclocking**: shrinking the cycle time is equivalent to inflating
  all delays by the same ratio.
- **Process fluctuation**: a die-specific multiplicative delay offset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.liberty import (
    OperatingPoint,
    TECHNOLOGY,
    VoltageScalingModel,
)


@dataclass(frozen=True)
class AgingModel:
    """BTI-style power-law threshold shift.

    ``delta_vth_10y`` is the threshold shift after 10 years of stress at
    nominal conditions; the time exponent defaults to the textbook 0.2.
    """

    delta_vth_10y: float = 0.045
    exponent: float = 0.20

    def delta_vth(self, years: float) -> float:
        if years < 0:
            raise ValueError("years must be non-negative")
        if years == 0:
            return 0.0
        return self.delta_vth_10y * (years / 10.0) ** self.exponent

    def delay_factor(self, years: float,
                     technology: VoltageScalingModel = TECHNOLOGY,
                     voltage: float = None) -> float:
        """Delay multiplier after ``years`` of aging at ``voltage``.

        Aged vs fresh drive strength at the same supply: the threshold
        shift enters the alpha-power law directly.
        """
        shift = self.delta_vth(years)
        if shift == 0.0:
            return 1.0
        v = voltage if voltage is not None else technology.nominal_voltage
        aged = VoltageScalingModel(
            nominal_voltage=technology.nominal_voltage,
            threshold_voltage=technology.threshold_voltage + shift,
            alpha=technology.alpha,
        )
        return aged._k(v) / technology._k(v)


@dataclass(frozen=True)
class TemperatureModel:
    """Linear mobility-degradation delay model around the 25 C corner."""

    reference_c: float = 25.0
    percent_per_10c: float = 0.8

    def delay_factor(self, temperature_c: float) -> float:
        delta = (temperature_c - self.reference_c) / 10.0
        factor = 1.0 + (self.percent_per_10c / 100.0) * delta
        if factor <= 0:
            raise ValueError("temperature model left its validity range")
        return factor


def overclock_factor(nominal_clock_ps: float, target_clock_ps: float) -> float:
    """Delay inflation equivalent to shrinking the cycle time."""
    if nominal_clock_ps <= 0 or target_clock_ps <= 0:
        raise ValueError("clock periods must be positive")
    return nominal_clock_ps / target_clock_ps


@dataclass(frozen=True)
class StressCondition:
    """A composite operating condition: voltage + aging + heat + clocking."""

    voltage_reduction: float = 0.0
    years: float = 0.0
    temperature_c: float = 25.0
    overclock: float = 1.0
    process_factor: float = 1.0
    aging: AgingModel = AgingModel()
    temperature: TemperatureModel = TemperatureModel()

    def delay_factor(self,
                     technology: VoltageScalingModel = TECHNOLOGY) -> float:
        """Combined delay multiplier relative to fresh nominal silicon."""
        voltage = technology.nominal_voltage * (1.0 - self.voltage_reduction)
        factor = technology.delay_factor(voltage)
        factor *= self._aging_factor(technology, voltage)
        factor *= self.temperature.delay_factor(self.temperature_c)
        factor *= self.overclock
        factor *= self.process_factor
        return factor

    def _aging_factor(self, technology: VoltageScalingModel,
                      voltage: float) -> float:
        shift = self.aging.delta_vth(self.years)
        if shift == 0.0:
            return 1.0
        aged = VoltageScalingModel(
            nominal_voltage=technology.nominal_voltage,
            threshold_voltage=technology.threshold_voltage + shift,
            alpha=technology.alpha,
        )
        return aged._k(voltage) / technology._k(voltage)

    def operating_point(self, name: str = "",
                        technology: VoltageScalingModel = TECHNOLOGY,
                        ) -> "StressPoint":
        label = name or (
            f"VR{int(round(self.voltage_reduction * 100)):02d}"
            f"Y{self.years:g}T{self.temperature_c:g}"
        )
        return StressPoint(
            name=label,
            voltage=technology.nominal_voltage * (1 - self.voltage_reduction),
            temperature_c=self.temperature_c,
            factor=self.delay_factor(technology),
        )


@dataclass(frozen=True)
class StressPoint(OperatingPoint):
    """An operating point whose delay factor is pre-composed.

    :class:`repro.fpu.timing.TimingModel` maps points to delay factors
    through the technology's voltage curve; stress points instead carry
    their combined factor directly, which
    :func:`stress_threshold` converts to a slack threshold.
    """

    factor: float = 1.0


def stress_threshold(point: StressPoint) -> float:
    """Slack threshold th = 1 - 1/f for a composed stress point."""
    if point.factor <= 0:
        raise ValueError("delay factor must be positive")
    return max(0.0, 1.0 - 1.0 / point.factor)
