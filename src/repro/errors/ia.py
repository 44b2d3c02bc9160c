"""IA-model: instruction-aware statistical injection (Section II.C / IV.C.2).

Characterised once per instruction type from DTA over randomly generated
operands (Fig. 7): each type gets, per operating point, an error ratio and
a conditional per-bit flip distribution.  Injection picks the victim type
proportionally to (dynamic count x type error ratio) and synthesises a
bitmask from the per-bit statistics — more physical than DA, but still
blind to the workload's actual operand values (the gap Fig. 8 exposes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.circuit.liberty import OperatingPoint
from repro.errors.base import (
    ErrorModel,
    InjectionPlan,
    Victim,
    WorkloadProfile,
    pick_weighted_op,
)
from repro.fpu.formats import FpOp
from repro.utils.rng import RngStream


@dataclass
class InstructionStats:
    """Per-(type, point) DTA statistics.

    ``bit_probabilities[b]`` is P(bit b flips | instruction is faulty),
    which together with ``error_ratio`` gives the unconditional bit error
    injection probabilities plotted in Fig. 7.
    """

    error_ratio: float
    bit_probabilities: np.ndarray
    sample_size: int = 0

    def unconditional_ber(self) -> np.ndarray:
        return self.error_ratio * self.bit_probabilities

    def to_dict(self) -> dict:
        return {
            "error_ratio": self.error_ratio,
            "bit_probabilities": self.bit_probabilities.tolist(),
            "sample_size": self.sample_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InstructionStats":
        return cls(
            error_ratio=float(data["error_ratio"]),
            bit_probabilities=np.asarray(data["bit_probabilities"], dtype=float),
            sample_size=int(data.get("sample_size", 0)),
        )


class IaModel(ErrorModel):
    """Statistical injection from per-instruction-type DTA.

    Like the DA-model, the number of flips per run follows
    ``window x expected ER`` (here the count-weighted per-type ratios);
    unlike DA, victims concentrate on error-prone instruction types and
    bitmasks follow the characterised per-bit distributions.
    """

    name = "IA"
    injection_technique = "statistical"
    instruction_aware = True
    workload_aware = False

    #: Dynamic-instruction span of one injection experiment.
    injection_window = 1024

    def __init__(self, stats: Dict[str, Dict[FpOp, InstructionStats]],
                 injection_window: int = 1024):
        """``stats[point_name][op]`` -> :class:`InstructionStats`."""
        self.stats = stats
        self.injection_window = injection_window

    def _point_stats(self, point: OperatingPoint) -> Dict[FpOp, InstructionStats]:
        try:
            return self.stats[point.name]
        except KeyError:
            raise KeyError(
                f"IA-model not characterised for {point.name}; known: "
                f"{sorted(self.stats)}"
            ) from None

    def error_ratio(self, profile: WorkloadProfile,
                    point: OperatingPoint) -> float:
        """Count-weighted mean of the per-type characterised ratios.

        Workload-agnostic per type: the same type ratios are applied to
        any workload's instruction mix.
        """
        stats = self._point_stats(point)
        total = profile.fp_instructions
        if total == 0:
            return 0.0
        expected = sum(
            count * stats[op].error_ratio
            for op, count in profile.counts_by_op.items()
            if op in stats
        )
        return expected / total

    def plan(self, profile: WorkloadProfile, point: OperatingPoint,
             rng: RngStream) -> InjectionPlan:
        plan = InjectionPlan(model=self.name, point=point.name)
        stats = self._point_stats(point)
        weights = {
            op: profile.counts_by_op.get(op, 0) * stats[op].error_ratio
            for op in stats
        }
        if not any(w > 0 for w in weights.values()):
            return plan  # no type can fail at this point: nothing injected
        window = min(self.injection_window, max(1, profile.fp_instructions))
        expected = window * self.error_ratio(profile, point)
        count = max(1, int(round(expected)))
        for _ in range(count):
            chosen = pick_weighted_op(weights, rng)
            index = int(rng.integers(0, max(1, profile.counts_by_op[chosen])))
            mask = self._sample_bitmask(stats[chosen], chosen, rng)
            plan.victims.append(Victim(op=chosen, index=index, bitmask=mask))
        return plan

    def _sample_bitmask(self, stat: InstructionStats, op: FpOp,
                        rng: RngStream) -> int:
        probs = stat.bit_probabilities
        draws = rng.random(size=probs.shape[0])
        mask = 0
        for bit, (p, d) in enumerate(zip(probs, draws)):
            if d < p:
                mask |= 1 << bit
        if mask == 0:
            # A faulty instruction flips at least one bit: force the most
            # likely position (ties broken toward the LSB).
            bit = int(np.argmax(probs)) if probs.any() else 0
            mask = 1 << bit
        return mask

    # -- artifact (de)serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            point: {op.value: st.to_dict() for op, st in per_op.items()}
            for point, per_op in self.stats.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IaModel":
        from repro.fpu.formats import op_by_mnemonic

        stats = {
            point: {
                op_by_mnemonic(mnemonic): InstructionStats.from_dict(st)
                for mnemonic, st in per_op.items()
            }
            for point, per_op in data.items()
        }
        return cls(stats)
