"""DA-model: data-agnostic timing-error injection (Section II.B / IV.C.1).

The conventional soft-error-style model: a *fixed* error ratio per voltage
level (estimated once by Monte-Carlo DTA over operands randomly extracted
from the benchmark mix) and a *single uniformly random bit flip* in the
destination register of a uniformly random dynamic instruction.  It knows
the voltage, but neither the instruction type, the operand values, nor the
non-uniform multi-bit structure of real timing errors — the inaccuracies
Figs. 9/10 quantify.
"""

from __future__ import annotations

from typing import Dict

from repro.circuit.liberty import OperatingPoint
from repro.errors.base import ErrorModel, InjectionPlan, Victim, WorkloadProfile
from repro.utils.rng import RngStream


class DaModel(ErrorModel):
    """Fixed-probability, single-bit, instruction-agnostic injection.

    Per run, the paper's formula ``#errors = #instructions x fixed ER``
    is applied over an *injection window* of dynamic instructions around
    the random injection cycle (gem5-checkpoint style), so the number of
    injected flips scales with the fixed ratio — one flip at low ratios,
    bursts of independent flips as the ratio grows.
    """

    name = "DA"
    injection_technique = "fixed probability"
    instruction_aware = False
    workload_aware = False

    #: Dynamic-instruction span of one injection experiment.
    injection_window = 1024

    def __init__(self, fixed_error_ratios: Dict[str, float],
                 injection_window: int = 1024):
        """``fixed_error_ratios`` maps operating-point name -> fixed ER.

        The paper's values are 1e-3 at VR15 and 1e-2 at VR20, obtained
        from DTA over 10 M randomly extracted instructions; use
        :func:`repro.errors.pipeline.characterize_da` to measure the
        equivalent constants for this FPU.
        """
        for point, ratio in fixed_error_ratios.items():
            if not 0.0 <= ratio <= 1.0:
                raise ValueError(f"error ratio for {point} outside [0, 1]")
        self.fixed_error_ratios = dict(fixed_error_ratios)
        self.injection_window = injection_window

    def error_ratio(self, profile: WorkloadProfile,
                    point: OperatingPoint) -> float:
        """The fixed ratio — identical for every workload by construction."""
        try:
            return self.fixed_error_ratios[point.name]
        except KeyError:
            raise KeyError(
                f"DA-model has no characterised ratio for {point.name}; "
                f"known points: {sorted(self.fixed_error_ratios)}"
            ) from None

    def _pick_victim(self, profile: WorkloadProfile,
                     rng: RngStream) -> Victim:
        ops = profile.ops_present()
        weights = [profile.counts_by_op[op] for op in ops]
        total = sum(weights)
        r = int(rng.integers(0, total))
        acc = 0
        chosen = ops[-1]
        for op, w in zip(ops, weights):
            acc += w
            if r < acc:
                chosen = op
                break
        index = int(rng.integers(0, profile.counts_by_op[chosen]))
        bit = int(rng.integers(0, chosen.fmt.width))
        return Victim(op=chosen, index=index, bitmask=1 << bit)

    def plan(self, profile: WorkloadProfile, point: OperatingPoint,
             rng: RngStream) -> InjectionPlan:
        """Window x fixed-ER uniformly random single-bit flips."""
        plan = InjectionPlan(model=self.name, point=point.name)
        ratio = self.error_ratio(profile, point)
        if ratio <= 0.0 or profile.fp_instructions == 0:
            return plan
        window = min(self.injection_window, profile.fp_instructions)
        count = max(1, int(round(window * ratio)))
        for _ in range(count):
            plan.victims.append(self._pick_victim(profile, rng))
        return plan
