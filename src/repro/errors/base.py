"""Common interfaces of the error-model layer.

An :class:`ErrorModel` answers two questions for a given workload and
operating point (Section III.B):

1. *How often* do timing errors occur — :meth:`ErrorModel.error_ratio`
   (Eq. 2; the quantity compared across models in Fig. 10), and
2. *Where and what* — :meth:`ErrorModel.plan` produces the victim dynamic
   instruction and the bitmask applied to its destination register for one
   injection run.

Each injection run applies the bitmask(s) of a single injection event at a
random point of the execution, as in the paper's campaigns ("for every
program execution, we apply the bitmasks in a random clock cycle"); the
1068-run campaigns then estimate outcome distributions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.liberty import OperatingPoint
from repro.fpu.formats import FpOp
from repro.utils.rng import RngStream


@dataclass
class WorkloadProfile:
    """What the golden run of a benchmark exposes to the models.

    ``trace_by_op`` holds the dynamic operand streams (raw bit patterns)
    per instruction type, capped at ``trace_cap`` samples per type — the
    input to workload-aware DTA.  ``counts_by_op`` are the full dynamic
    counts (the cap only limits stored operands, not statistics).
    """

    name: str
    counts_by_op: Dict[FpOp, int] = field(default_factory=dict)
    trace_by_op: Dict[FpOp, Tuple[np.ndarray, Optional[np.ndarray]]] = (
        field(default_factory=dict)
    )
    total_instructions: int = 0
    golden_cycles: int = 0

    @property
    def fp_instructions(self) -> int:
        return sum(self.counts_by_op.values())

    def ops_present(self) -> List[FpOp]:
        return [op for op, n in self.counts_by_op.items() if n > 0]


@dataclass(frozen=True)
class Provenance:
    """Where a characterised model came from.

    Carried through :mod:`repro.errors.store` artifacts so a loaded model
    still says which benchmark trace, seed, sample budget and operating
    points produced it (the reproducibility half of the Fig. 2 handoff).
    ``trace_digest`` is the content hash of the operand trace that fed
    workload-dependent characterisation (WA/DA); it doubles as the
    trace component of the pipeline's content-addressed cache key.
    """

    benchmark: Optional[str] = None
    seed: Optional[int] = None
    samples: Optional[int] = None
    points: Tuple[str, ...] = ()
    trace_digest: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {"benchmark": self.benchmark, "seed": self.seed,
                "samples": self.samples, "points": list(self.points),
                "trace_digest": self.trace_digest}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Provenance":
        return cls(
            benchmark=data.get("benchmark"),
            seed=data.get("seed"),
            samples=data.get("samples"),
            points=tuple(data.get("points") or ()),
            trace_digest=data.get("trace_digest"),
        )

    def describe(self) -> str:
        """One human-readable provenance line for reports."""
        parts = []
        if self.benchmark:
            parts.append(f"benchmark={self.benchmark}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.samples is not None:
            parts.append(f"samples={self.samples}")
        if self.points:
            parts.append("points=" + "+".join(self.points))
        if self.trace_digest:
            parts.append(f"trace={self.trace_digest[:12]}")
        return ", ".join(parts) if parts else "(no provenance)"


@dataclass(frozen=True)
class Victim:
    """One corrupted dynamic instruction: which, and what flips."""

    op: FpOp
    index: int      # position within that op's dynamic stream
    bitmask: int    # XOR applied to the destination register


@dataclass
class InjectionPlan:
    """The injection event(s) of a single run.

    ``weight`` is the Horvitz–Thompson importance weight of the sampled
    event relative to uniform victim selection (``p_uniform / q``);
    1.0 for every uniformly-sampling model, so downstream weighted AVM
    estimators collapse to the plain AVM unless an importance-sampling
    model set a real weight.
    """

    model: str
    point: str
    victims: List[Victim] = field(default_factory=list)
    weight: float = 1.0

    @property
    def injects(self) -> bool:
        return bool(self.victims)


class ErrorModel(abc.ABC):
    """Contract shared by the DA, IA and WA models (Table I)."""

    #: Short model identifier used in reports ("DA", "IA", "WA").
    name: str = "?"
    #: Table I "injection technique" column.
    injection_technique: str = "?"
    voltage_aware: bool = True
    instruction_aware: bool = False
    workload_aware: bool = False
    microarchitecture_aware: bool = False
    #: Characterisation origin, attached by ``characterize_*`` and
    #: preserved across store round-trips (None for hand-built models).
    provenance: Optional[Provenance] = None

    @abc.abstractmethod
    def error_ratio(self, profile: WorkloadProfile,
                    point: OperatingPoint) -> float:
        """Eq. 2: the model's injected-error ratio for this workload/point."""

    @abc.abstractmethod
    def plan(self, profile: WorkloadProfile, point: OperatingPoint,
             rng: RngStream) -> InjectionPlan:
        """Produce the injection event of one run (possibly empty)."""

    def feature_row(self) -> Dict[str, object]:
        """Table I row for this model."""
        return {
            "model": self.name,
            "injection technique": self.injection_technique,
            "voltage aware": self.voltage_aware,
            "instruction aware": self.instruction_aware,
            "workload aware": self.workload_aware,
            "microarchitecture aware": self.microarchitecture_aware,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def pick_weighted_op(counts: Dict[FpOp, float], rng: RngStream) -> Optional[FpOp]:
    """Sample an instruction type proportionally to non-negative weights."""
    items = [(op, w) for op, w in counts.items() if w > 0]
    if not items:
        return None
    total = sum(w for _, w in items)
    r = rng.random() * total
    acc = 0.0
    for op, w in items:
        acc += w
        if r <= acc:
            return op
    return items[-1][0]
