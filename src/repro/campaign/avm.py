"""Application Vulnerability Metric and energy guidance (Section V.C).

AVM (Eq. 4) aggregates the non-masked outcome probability of a campaign
into one number per (application, voltage, model).  Section V.C uses it
two ways, both implemented here:

- **Vmin selection**: the lowest characterised voltage whose AVM does not
  exceed a target (0 for strict correctness) is the application's safe
  undervolting point; dynamic power scales with V^2, giving the paper's
  "reduce from 1.1 V to 0.88 V" style savings.  The paper's 56 % figure
  for k-means folds in the frequency headroom released by the recovered
  timing guardband (energy/op ~ V^2 with the guardband-free clock); we
  report both the pure V^2 saving and the guardband-inclusive one.
- **Mitigation guidance**: with an error-prevention scheme that pays a
  per-predicted-error penalty (e.g. replay or cycle-stealing slow-down),
  AVM tells which applications can keep undervolting with the scheme on;
  the energy model charges the scheme's overhead against the V^2 gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.runner import CampaignResult
from repro.circuit.liberty import OperatingPoint, TECHNOLOGY, VoltageScalingModel
from repro.utils.stats import geometric_mean, ratio_divergence


def avm_divergence(results: Sequence[CampaignResult],
                   reference_model: str = "WA") -> Dict[str, float]:
    """Mean absolute AVM difference of each model vs the reference.

    The paper reports DA/IA AVM values differing from WA's by 49.8 % on
    average; this computes the same aggregate (in AVM percentage points)
    over a set of campaign cells.
    """
    by_cell: Dict[Tuple[str, str], Dict[str, float]] = {}
    for result in results:
        by_cell.setdefault((result.workload, result.point), {})[
            result.model
        ] = result.avm
    sums: Dict[str, List[float]] = {}
    for cell in by_cell.values():
        if reference_model not in cell:
            continue
        ref = cell[reference_model]
        for model, avm in cell.items():
            if model == reference_model:
                continue
            sums.setdefault(model, []).append(abs(avm - ref) * 100.0)
    return {model: sum(vals) / len(vals) for model, vals in sums.items()
            if vals}


def error_ratio_divergence(results: Sequence[CampaignResult],
                           reference_model: str = "WA",
                           floor: Optional[float] = None) -> Dict[str, float]:
    """Geometric-mean fold-change of injected ER vs the reference model.

    This is the paper's "~250x on average" aggregate (Fig. 10): per cell,
    the larger of ER_model/ER_ref and ER_ref/ER_model; zero ratios are
    floored at the campaign's detection limit (one error in the analysed
    trace) so error-free cells contribute large-but-finite factors.
    """
    by_cell: Dict[Tuple[str, str], Dict[str, float]] = {}
    for result in results:
        by_cell.setdefault((result.workload, result.point), {})[
            result.model
        ] = result.error_ratio
    folds: Dict[str, List[float]] = {}
    default_floor = floor if floor is not None else 1e-6
    for cell in by_cell.values():
        if reference_model not in cell:
            continue
        ref = cell[reference_model]
        for model, ratio in cell.items():
            if model == reference_model:
                continue
            folds.setdefault(model, []).append(
                ratio_divergence(ratio, ref, default_floor))
    return {model: geometric_mean(vals) for model, vals in folds.items()
            if vals}


@dataclass
class EnergyAnalysis:
    """Voltage/energy guidance from AVM sweeps."""

    technology: VoltageScalingModel = TECHNOLOGY
    avm_target: float = 0.0

    def safe_point(self, sweep: Sequence[Tuple[OperatingPoint, float]]
                   ) -> OperatingPoint:
        """Lowest-voltage point whose AVM is within the target.

        ``sweep`` pairs operating points with their campaign AVM; the
        nominal point (AVM 0 by construction) should be included as the
        fallback.
        """
        safe = [point for point, avm in sweep if avm <= self.avm_target]
        if not safe:
            raise ValueError("no operating point meets the AVM target")
        return min(safe, key=lambda p: p.voltage)

    def power_saving(self, point: OperatingPoint) -> float:
        """Pure dynamic-power saving of running at ``point`` (V^2 law)."""
        return 1.0 - self.technology.power_factor(point.voltage)

    def energy_saving_with_guardband(self, point: OperatingPoint) -> float:
        """Energy/op saving including the recovered timing guardband.

        Undervolting to the *actual* point of failure also recovers the
        conventional voltage guardband designers add on top (the paper's
        k-means 56 % at 0.88 V vs 36 % from V^2 alone); we model the
        guardband as the delay-factor headroom converted back to supply
        scaling of the same magnitude.
        """
        v2 = self.technology.power_factor(point.voltage)
        guardband = self.technology.delay_factor(point.voltage)
        return 1.0 - v2 / guardband

    def mitigation_energy_saving(self, point: OperatingPoint,
                                 error_ratio: float,
                                 replay_penalty: float = 30.0) -> float:
        """Energy saving with an error-prevention/replay scheme enabled.

        The scheme detects-and-replays each predicted-faulty instruction
        at a cost of ``replay_penalty`` instruction-equivalents; positive
        returns mean undervolting remains profitable despite errors —
        the basis of the paper's "up-to 20 % energy savings" claim.
        """
        if not 0.0 <= error_ratio <= 1.0:
            raise ValueError("error_ratio must be a probability")
        overhead = 1.0 + replay_penalty * error_ratio
        return 1.0 - self.technology.power_factor(point.voltage) * overhead

    def best_mitigated_point(
        self, sweep: Sequence[Tuple[OperatingPoint, float]],
        replay_penalty: float = 30.0,
    ) -> Tuple[OperatingPoint, float]:
        """Point maximising mitigated energy saving over an ER sweep."""
        best = None
        for point, error_ratio in sweep:
            saving = self.mitigation_energy_saving(
                point, error_ratio, replay_penalty
            )
            if best is None or saving > best[1]:
                best = (point, saving)
        if best is None:
            raise ValueError("empty sweep")
        return best
