"""WA-model: the proposed instruction- and workload-aware model
(Sections II.D / IV.C.3).

Characterised per *benchmark*: dynamic timing analysis runs over the
workload's own operand trace, yielding for every operating point the set
of dynamic instructions that actually violate timing and the exact bitmask
each one exhibits.  Injection replays those concrete (instruction,
bitmask) events — including multi-instruction bursts when consecutive
dynamic instructions fail together, the behaviour Section II.A attributes
to real timing errors.  Where the trace exhibits no failures at a point,
the model injects nothing: the workload can safely run undervolted there
(the k-means / hotspot observations of Section V.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.circuit.liberty import OperatingPoint
from repro.errors.base import ErrorModel, InjectionPlan, Victim, WorkloadProfile
from repro.fpu.formats import FpOp
from repro.utils.rng import RngStream


@dataclass
class TraceFaults:
    """Faulty dynamic instructions of one (type, point): indices + masks."""

    op: FpOp
    indices: np.ndarray        # positions within the op's analysed trace
    bitmasks: np.ndarray       # aligned XOR masks (uint64)
    analysed: int              # trace sample size the DTA covered
    ber: np.ndarray = field(default=None)  # per-bit error ratio (Fig. 8)

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @property
    def error_ratio(self) -> float:
        return self.count / self.analysed if self.analysed else 0.0

    def to_dict(self) -> dict:
        return {
            "op": self.op.value,
            "indices": self.indices.tolist(),
            "bitmasks": [hex(int(m)) for m in self.bitmasks],
            "analysed": self.analysed,
            "ber": None if self.ber is None else self.ber.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceFaults":
        from repro.fpu.formats import op_by_mnemonic

        ber = data.get("ber")
        return cls(
            op=op_by_mnemonic(data["op"]),
            indices=np.asarray(data["indices"], dtype=np.int64),
            bitmasks=np.asarray(
                [int(m, 16) for m in data["bitmasks"]], dtype=np.uint64
            ),
            analysed=int(data["analysed"]),
            ber=None if ber is None else np.asarray(ber, dtype=float),
        )


class WaModel(ErrorModel):
    """Trace-exact workload-aware injection (the paper's contribution)."""

    name = "WA"
    injection_technique = "statistical"
    instruction_aware = True
    workload_aware = True
    microarchitecture_aware = True

    def __init__(self, workload: str,
                 faults: Dict[str, Dict[FpOp, TraceFaults]],
                 burst_window: int = 8):
        """``faults[point_name][op]`` -> :class:`TraceFaults`.

        ``burst_window``: neighbouring faulty instructions of the same
        type within this dynamic distance are injected together with the
        sampled victim, reproducing the multi-instruction corruption of
        real timing-error episodes (set to 0 to disable).
        """
        self.workload = workload
        self.faults = faults
        self.burst_window = burst_window

    def _point_faults(self, point: OperatingPoint) -> Dict[FpOp, TraceFaults]:
        try:
            return self.faults[point.name]
        except KeyError:
            raise KeyError(
                f"WA-model for {self.workload!r} not characterised at "
                f"{point.name}; known: {sorted(self.faults)}"
            ) from None

    def error_ratio(self, profile: WorkloadProfile,
                    point: OperatingPoint) -> float:
        """Measured faulty / analysed over the workload's own trace."""
        faults = self._point_faults(point)
        analysed = sum(tf.analysed for tf in faults.values())
        if analysed == 0:
            return 0.0
        return sum(tf.count for tf in faults.values()) / analysed

    def faulty_population(self, point: OperatingPoint) -> int:
        return sum(tf.count for tf in self._point_faults(point).values())

    def plan(self, profile: WorkloadProfile, point: OperatingPoint,
             rng: RngStream) -> InjectionPlan:
        """Replay one concrete faulty event observed by trace DTA."""
        plan = InjectionPlan(model=self.name, point=point.name)
        faults = self._point_faults(point)
        population = self.faulty_population(point)
        if population == 0:
            return plan  # workload is timing-safe at this voltage
        pick = int(rng.integers(0, population))
        acc = 0
        for op, tf in sorted(faults.items(), key=lambda kv: kv[0].value):
            if pick < acc + tf.count:
                local = pick - acc
                self._emit_burst(plan, tf, local)
                break
            acc += tf.count
        return plan

    def _emit_burst(self, plan: InjectionPlan, tf: TraceFaults,
                    local: int) -> None:
        centre_index = int(tf.indices[local])
        plan.victims.append(Victim(op=tf.op, index=centre_index,
                                   bitmask=int(tf.bitmasks[local])))
        if self.burst_window <= 0:
            return
        lo = centre_index - self.burst_window
        hi = centre_index + self.burst_window
        left = int(np.searchsorted(tf.indices, lo, side="left"))
        right = int(np.searchsorted(tf.indices, hi, side="right"))
        for j in range(left, right):
            if j == local:
                continue
            plan.victims.append(Victim(op=tf.op, index=int(tf.indices[j]),
                                       bitmask=int(tf.bitmasks[j])))

    # -- reporting hooks ----------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "burst_window": self.burst_window,
            "faults": {
                point: {op.value: tf.to_dict() for op, tf in per_op.items()}
                for point, per_op in self.faults.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WaModel":
        from repro.fpu.formats import op_by_mnemonic

        faults = {
            point: {
                op_by_mnemonic(mnemonic): TraceFaults.from_dict(tf)
                for mnemonic, tf in per_op.items()
            }
            for point, per_op in data["faults"].items()
        }
        return cls(workload=data["workload"], faults=faults,
                   burst_window=int(data.get("burst_window", 8)))
