"""Running-AVM statistics behind every campaign view.

Every view answers the same question — "given the outcome tallies so
far, what is the AVM and how tight is its 95 % Wilson interval?" — and
the campaign state answers it here, once.

Semantics follow the paper: the Architectural Vulnerability Metric is
the non-masked fraction of runs, where non-masked means SDC, Crash or
Timeout.  Intervals come from :func:`repro.utils.stats.wilson_interval`
(the same score interval behind the paper's 1068-runs-per-cell sizing);
zero-run cells degrade gracefully to an all-zero estimate instead of
raising, because live views render before the first run lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.utils.stats import wilson_interval

__all__ = [
    "NON_MASKED_OUTCOMES",
    "OUTCOME_ORDER",
    "AvmEstimate",
    "avm_estimate",
    "non_masked_count",
]

#: Outcome display order (matches the paper's category order).
OUTCOME_ORDER = ("Masked", "SDC", "Crash", "Timeout")

#: Outcomes that count toward the AVM numerator.
NON_MASKED_OUTCOMES = ("SDC", "Crash", "Timeout")


def non_masked_count(tallies: Mapping[str, int]) -> int:
    """Sum of the AVM-numerator outcomes in an outcome tally mapping."""
    return sum(tallies.get(name, 0) for name in NON_MASKED_OUTCOMES)


@dataclass(frozen=True)
class AvmEstimate:
    """Running AVM with its Wilson confidence interval.

    ``runs`` is the denominator (all classified runs so far) and
    ``non_masked`` the numerator; ``ci_lo``/``ci_hi`` bound the AVM at
    the requested confidence.  All fields are zero when ``runs`` is.
    """

    runs: int
    non_masked: int
    avm: float
    ci_lo: float
    ci_hi: float
    confidence: float = 0.95

    @property
    def half_width(self) -> float:
        """Half the CI width — the paper's ±margin figure."""
        return (self.ci_hi - self.ci_lo) / 2.0

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "non_masked": self.non_masked,
            "avm": self.avm,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "ci_half_width": self.half_width,
            "confidence": self.confidence,
        }


def avm_estimate(non_masked: int, runs: int,
                 confidence: float = 0.95) -> AvmEstimate:
    """Point estimate + Wilson CI for ``non_masked`` failures in ``runs``."""
    if runs <= 0:
        return AvmEstimate(0, 0, 0.0, 0.0, 0.0, confidence)
    lo, hi = wilson_interval(non_masked, runs, confidence)
    return AvmEstimate(runs, non_masked, non_masked / runs, lo, hi,
                       confidence)
