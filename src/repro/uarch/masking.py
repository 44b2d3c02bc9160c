"""Microarchitectural masking analysis (Section II.E).

Errors injected into a pipeline do not always reach architectural state:
wrong-path instructions are squashed with their results, and results whose
destination register is overwritten before any consumer reads it are dead.
Ignoring these effects is exactly what the paper says "can misguide
resilience studies"; the campaign injector consults a
:class:`MaskingProfile` derived from the core model's schedule before it
corrupts anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors.base import Victim
from repro.uarch.core import PipelineSchedule
from repro.utils.rng import RngStream

#: Cause labels attached to masked victims (explain narratives / reports).
WRONG_PATH = "wrong-path"
DEAD_WRITE = "dead-write"


@dataclass(frozen=True)
class MaskingProfile:
    """Per-benchmark microarchitectural masking rates.

    Both rates come from the OoO schedule: ``wrong_path_rate`` from the
    misprediction redirect windows, ``dead_write_rate`` from FP register
    lifetime analysis of the trace.
    """

    wrong_path_rate: float
    dead_write_rate: float

    def __post_init__(self):
        for value in (self.wrong_path_rate, self.dead_write_rate):
            if not 0.0 <= value <= 1.0:
                raise ValueError("masking rates must be probabilities")

    @classmethod
    def from_schedule(cls, schedule: PipelineSchedule) -> "MaskingProfile":
        return cls(
            wrong_path_rate=schedule.wrong_path_fp_fraction,
            dead_write_rate=schedule.dead_fp_fraction,
        )

    @property
    def total_rate(self) -> float:
        """Probability an injected FP error never reaches software."""
        return 1.0 - (1.0 - self.wrong_path_rate) * (1.0 - self.dead_write_rate)

    def resolve(self, victim: Victim,
                rng: RngStream) -> Tuple[bool, Optional[str]]:
        """Deterministically (per run-stream) resolve one victim.

        Consumes exactly one uniform draw and partitions it: ``[0,
        wrong_path_rate)`` attributes the squash to a wrong-path window,
        ``[wrong_path_rate, total_rate)`` to a dead register write, the
        rest is unmasked.  The verdict is bit-identical to the historical
        single-threshold test (same draw, same ``< total_rate`` cut);
        the cause label is derived from the *same* draw so attribution
        costs no extra randomness and cannot perturb campaigns.
        """
        r = rng.random()
        if r >= self.total_rate:
            return False, None
        return True, (WRONG_PATH if r < self.wrong_path_rate else DEAD_WRITE)

