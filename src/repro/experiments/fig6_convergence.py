"""Fig. 6: BER convergence with characterisation sample size (Eq. 3).

Takes the fp-mul operand trace of the ``is`` program, computes the per-bit
error ratio of the full trace at VR20, then re-estimates it from random
subsets of increasing size K and reports the average absolute error.
Expected shape (paper): AE falls steeply with K; at the largest K the
subset BER is nearly identical to the full-trace BER, justifying the
1 M-operand characterisation budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuit.liberty import VR15, VR20, OperatingPoint
from repro.errors.base import WorkloadProfile
from repro.errors.pipeline import make_pipeline
from repro.experiments import Option, comma_separated_ints
from repro.fpu.formats import FpOp, op_by_mnemonic
from repro.utils.rng import RngStream
from repro.utils.stats import average_absolute_error

TITLE = "Fig. 6 — BER convergence with characterisation sample size"

OPTIONS = (
    Option("benchmark", str, "is",
           "benchmark whose trace is analysed"),
    Option("sample_sizes", comma_separated_ints, (1_000, 10_000, 100_000),
           "comma-separated subset sizes K"),
    Option("op", op_by_mnemonic, FpOp.MUL_D.value,
           "instruction type (mnemonic, e.g. fp.mul.d)"),
    Option("point", lambda name: {"VR15": VR15, "VR20": VR20}[name], "VR20",
           "operating point (VR15 or VR20)"),
    Option("seed", int, 2021, "trace/subset seed"),
    Option("scale", str, "small", "workload scale (tiny/small/paper)"),
    Option("workers", int, 0,
           "DTA worker processes (0 = in-process; any count is "
           "bit-identical)"),
)


@dataclass
class Fig6Result:
    op: FpOp
    point: str
    full_trace_size: int
    full_ber: np.ndarray
    sampled_ber: Dict[int, np.ndarray]
    absolute_error: Dict[int, float]


def run(context=None,
        profile: Optional[WorkloadProfile] = None,
        benchmark: str = "is",
        sample_sizes: Sequence[int] = (1_000, 10_000, 100_000),
        op: FpOp = FpOp.MUL_D,
        point: OperatingPoint = VR20,
        seed: int = 2021,
        scale: str = "small",
        workers: int = 0) -> Fig6Result:
    """Needs one benchmark's trace: from ``profile`` when given, else the
    shared ``context``, else a fresh golden run of ``benchmark``."""
    if profile is None and context is not None:
        profile = context.profiles[benchmark]
    if profile is None:
        from repro.campaign.runner import CampaignRunner
        from repro.workloads import make_workload

        runner = CampaignRunner(
            make_workload(benchmark, scale=scale, seed=seed), seed=seed
        )
        profile = runner.golden().profile
    if op not in profile.trace_by_op:
        raise ValueError(f"profile {profile.name!r} has no {op} trace")
    a, b = profile.trace_by_op[op]
    pipeline = (context.pipeline if context is not None
                else make_pipeline(workers))

    def per_bit_ber(ops_a, ops_b) -> np.ndarray:
        return pipeline.per_bit_ber(op, ops_a, ops_b, [point])[point.name]

    full_ber = per_bit_ber(a, b)
    rng = RngStream(seed, "fig6")
    sampled: Dict[int, np.ndarray] = {}
    errors: Dict[int, float] = {}
    for k in sample_sizes:
        take = min(k, a.size)
        # Without replacement, like extracting K distinct instructions
        # from the trace; at K == trace size the estimate is exact.
        sel = rng.choice(a.size, size=take, replace=False)
        ber = per_bit_ber(a[sel], b[sel] if b is not None else None)
        sampled[k] = ber
        errors[k] = average_absolute_error(full_ber, ber)
    return Fig6Result(op=op, point=point.name, full_trace_size=int(a.size),
                      full_ber=full_ber, sampled_ber=sampled,
                      absolute_error=errors)


def render(result: Fig6Result) -> str:
    lines = [
        f"Fig. 6 — BER convergence for {result.op} of 'is' at {result.point}",
        f"  full trace: {result.full_trace_size} instructions",
    ]
    for k in sorted(result.sampled_ber):
        lines.append(f"  K = {k:>9,d}: average absolute error (Eq. 3) = "
                     f"{result.absolute_error[k]:.4f}")
    nz = np.nonzero(result.full_ber)[0]
    if nz.size:
        lines.append("  full-trace BER (non-zero bits, MSB-first):")
        for bit in nz[::-1][:16]:
            lines.append(f"    bit {bit:2d}: {result.full_ber[bit]:.3e}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
