"""Voltage-dependent delay characterisation (SiliconSmart substitute).

The paper re-characterises the NanGate 45 nm library at reduced supply
voltages with Synopsys SiliconSmart and studies two voltage-reduction (VR)
levels: VR15 (15 %, 0.935 V) and VR20 (20 %, 0.88 V) below the 1.1 V
nominal.  We reproduce the *output* of that step — a per-voltage delay
multiplier applied uniformly to cell delays — with the alpha-power-law MOS
delay model (Sakurai-Newton):

    t_d(V) ∝ V / (V - Vth)^alpha

which is the standard analytic fit to exactly the gate-delay-vs-voltage
curves a characterisation tool produces for a given process corner.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OperatingPoint:
    """A supply-voltage operating point of the target core."""

    name: str
    voltage: float
    temperature_c: float = 25.0


class VoltageScalingModel:
    """Alpha-power-law delay scaling for a 45 nm-like technology.

    ``delay_factor(v)`` returns the multiplier applied to every nominal
    cell/interconnect delay when operating at supply ``v``; it is 1.0 at
    the nominal voltage and grows super-linearly as ``v`` approaches the
    threshold voltage — the "timing wall" the paper's Section V.B refers
    to.  Defaults are calibrated for the reproduction so that VR15 and
    VR20 land at roughly +20 % and +31 % delay, putting random-operand
    error ratios in the 1e-3 / 1e-2 decades the paper measures.
    """

    def __init__(
        self,
        nominal_voltage: float = 1.1,
        threshold_voltage: float = 0.40,
        alpha: float = 1.3,
    ):
        if nominal_voltage <= threshold_voltage:
            raise ValueError("nominal voltage must exceed threshold voltage")
        self.nominal_voltage = nominal_voltage
        self.threshold_voltage = threshold_voltage
        self.alpha = alpha
        self._nominal_k = self._k(nominal_voltage)

    def _k(self, voltage: float) -> float:
        if voltage <= self.threshold_voltage:
            raise ValueError(
                f"supply {voltage} V at or below threshold "
                f"{self.threshold_voltage} V: circuit does not switch"
            )
        return voltage / (voltage - self.threshold_voltage) ** self.alpha

    def delay_factor(self, voltage: float) -> float:
        """Delay multiplier at ``voltage`` relative to nominal (>= 1 below nominal)."""
        return self._k(voltage) / self._nominal_k

    def operating_point(self, reduction: float, name: str = "") -> OperatingPoint:
        """Operating point for a fractional reduction below nominal."""
        voltage = self.nominal_voltage * (1.0 - reduction)
        label = name or f"VR{int(round(reduction * 100)):02d}"
        # Validate the point is above threshold before handing it out.
        self._k(voltage)
        return OperatingPoint(name=label, voltage=voltage)

    def power_factor(self, voltage: float) -> float:
        """Dynamic power multiplier at ``voltage`` relative to nominal.

        Dynamic power scales with V^2 (at iso-frequency); this is the model
        behind the paper's Section V.C energy-saving numbers ("reduce the
        voltage from 1.1 V down to 0.88 V ... improve power efficiency by
        up to 56 %" -- note the paper also folds in frequency headroom; the
        pure V^2 term gives 36 %, and :mod:`repro.campaign.avm` documents
        the composition used).
        """
        return (voltage / self.nominal_voltage) ** 2


#: The technology model every experiment shares.
TECHNOLOGY = VoltageScalingModel()

#: Paper operating points (Section IV.B.1).
NOMINAL = OperatingPoint(name="NOM", voltage=TECHNOLOGY.nominal_voltage)
VR15 = TECHNOLOGY.operating_point(0.15, name="VR15")
VR20 = TECHNOLOGY.operating_point(0.20, name="VR20")

#: Mapping used by campaign configuration files.
OPERATING_POINTS = {"NOM": NOMINAL, "VR15": VR15, "VR20": VR20}


def delay_factor(point: OperatingPoint) -> float:
    """Convenience: delay multiplier of an operating point under TECHNOLOGY."""
    return TECHNOLOGY.delay_factor(point.voltage)
