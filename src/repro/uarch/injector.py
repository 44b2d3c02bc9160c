"""Cycle-accurate placement of model bitmasks into the pipeline.

The bridge between the error models (which name a victim dynamic FP
instruction and a bitmask) and the workload execution (which needs to know
which of its FP results to corrupt): the injector timestamps each victim
with the cycle its destination register is written (from the OoO
schedule), resolves microarchitectural masking, and emits the effective
corruption map consumed by the workloads' FP interposition context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors.base import InjectionPlan, Victim
from repro.fpu.formats import FpOp
from repro.uarch.core import PipelineSchedule
from repro.uarch.masking import MaskingProfile
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class PlacedInjection:
    """One victim with its pipeline placement and masking resolution.

    ``mask_cause`` names why a masked victim never reached architectural
    state (:data:`~repro.uarch.masking.WRONG_PATH` squash or
    :data:`~repro.uarch.masking.DEAD_WRITE`); ``None`` for unmasked
    victims.
    """

    victim: Victim
    cycle: int
    uarch_masked: bool
    mask_cause: Optional[str] = None


@dataclass
class InjectionOutcomePlan:
    """The injector's output for one run."""

    placements: List[PlacedInjection] = field(default_factory=list)

    @property
    def effective(self) -> List[Victim]:
        return [p.victim for p in self.placements if not p.uarch_masked]

    @property
    def masked_count(self) -> int:
        return sum(1 for p in self.placements if p.uarch_masked)

    def corruption_map(self) -> Dict[FpOp, Dict[int, int]]:
        """{op: {dynamic index: cumulative XOR mask}} for the FP context."""
        out: Dict[FpOp, Dict[int, int]] = {}
        for victim in self.effective:
            per_op = out.setdefault(victim.op, {})
            per_op[victim.index] = per_op.get(victim.index, 0) ^ victim.bitmask
        return out


class MicroArchInjector:
    """Places a model's injection plan into a concrete pipeline schedule."""

    def __init__(self, schedule: PipelineSchedule,
                 masking: Optional[MaskingProfile] = None):
        self.schedule = schedule
        self.masking = masking or MaskingProfile.from_schedule(schedule)

    def place(self, plan: InjectionPlan,
              rng: RngStream) -> InjectionOutcomePlan:
        """Timestamp and masking-resolve every victim of a plan.

        A victim's per-op index stands in for its position in the merged
        FP stream when its cycle is looked up; that approximation only
        affects reported cycles, never corruption semantics.
        """
        outcome = InjectionOutcomePlan()
        for victim in plan.victims:
            cycle = self.schedule.cycle_of_fp(victim.index)
            masked, cause = self.masking.resolve(victim, rng)
            outcome.placements.append(
                PlacedInjection(victim=victim, cycle=cycle,
                                uarch_masked=masked, mask_cause=cause)
            )
        return outcome
