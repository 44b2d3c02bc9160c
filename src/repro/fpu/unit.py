"""FPU facade: golden execution + dynamic timing analysis in one object.

``FPU`` is what the rest of the framework talks to: the model-development
phase calls :meth:`FPU.dta` to characterise error behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuit.liberty import OperatingPoint
from repro.fpu import ops, softfloat
from repro.fpu.formats import FpOp
from repro.fpu.timing import DEFAULT_MODEL, TimingModel
from repro import telemetry

#: Default DTA operand-chunk size.  Sized so the handful of uint64
#: temporaries a vectorised mask builder materialises (~10-15 arrays)
#: stay within a typical 1 MiB L2 slice: 12288 x 8 B x ~10 = 0.98 MiB.
#: Measured on the characterisation workload this out-performs
#: full-batch evaluation by ~1.7-2x (see DESIGN.md section 9).
DEFAULT_DTA_BATCH = 12288


@dataclass
class DtaBatch:
    """DTA result for one operand batch: golden results + per-point masks."""

    op: FpOp
    golden: np.ndarray
    masks: Dict[str, np.ndarray]

    def error_ratio(self, point_name: str) -> float:
        """Eq. 2 for this batch at the given operating point."""
        mask = self.masks[point_name]
        return float(np.count_nonzero(mask)) / max(1, mask.size)


class FPU:
    """The voltage-scalable floating-point unit under study."""

    def __init__(self, timing_model: Optional[TimingModel] = None):
        self.timing_model = timing_model or DEFAULT_MODEL

    # -- architectural execution ---------------------------------------------------
    def execute(self, op: FpOp, a: int, b: int = 0) -> int:
        """Scalar golden execution (bit-accurate softfloat reference)."""
        return softfloat.execute(op, a, b)

    # -- dynamic timing analysis ----------------------------------------------------
    def dta(self, op: FpOp, a: np.ndarray, b: Optional[np.ndarray],
            points: Sequence[OperatingPoint]) -> DtaBatch:
        """Two-instance DTA over a batch (Section III.A.1, vectorised)."""
        a = np.asarray(a, dtype=np.uint64)
        with telemetry.span("fpu.dta", op=op.value, batch=int(a.size)):
            golden = ops.golden(op, a, b)
            masks = self.timing_model.error_masks(op, a, b, points,
                                                  golden=golden)
        telemetry.count("fpu.dta.batches")
        telemetry.count("fpu.dta.vectors", int(a.size))
        telemetry.observe("fpu.dta.batch_size", int(a.size))
        return DtaBatch(op=op, golden=golden, masks=masks)

    def operating_point(self, reduction: float) -> OperatingPoint:
        """Operating point for a fractional voltage reduction."""
        return self.timing_model.technology.operating_point(reduction)
