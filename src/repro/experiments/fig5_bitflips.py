"""Fig. 5: number of bit flips at faulty instruction outputs (VR15/VR20).

DTA over random operands for all double-precision instruction types;
histogram of popcount(bitmask) over the faulty instructions.  Expected
shape (paper): timing errors are multi-bit in the majority of cases
(64.5 % on average across the two VR levels), unlike single-bit soft
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.circuit.liberty import VR15, VR20
from repro.errors.characterize import random_operands
from repro.errors.pipeline import make_pipeline
from repro.experiments import Option
from repro.fpu.formats import OPS_DOUBLE
from repro.utils.rng import RngStream

TITLE = "Fig. 5 — bit flips per faulty instruction output"

OPTIONS = (
    Option("samples_per_op", int, 100_000,
           "random operand pairs per instruction type"),
    Option("seed", int, 2021, "operand-generation seed"),
    Option("workers", int, 0,
           "DTA worker processes (0 = in-process; any count is "
           "bit-identical)"),
)


@dataclass
class Fig5Result:
    histogram: Dict[str, Dict[int, int]]   # point -> {#flips: count}
    multi_bit_fraction: Dict[str, float]
    average_multi_bit: float


def run(context=None, samples_per_op: int = 100_000,
        seed: int = 2021, workers: int = 0) -> Fig5Result:
    """The operand stream is always the historical ``fig5`` RNG stream;
    ``workers`` only fans the DTA reduction out (a supplied ``context``
    brings its own pipeline), so the histogram is bit-identical for any
    worker count."""
    pipeline = (context.pipeline if context is not None
                else make_pipeline(workers))
    rng = RngStream(seed, "fig5")
    points = [VR15, VR20]
    # Every double op is 64 bits wide, so all histograms share a length.
    hists: Dict[str, np.ndarray] = {}
    for op in OPS_DOUBLE:
        a, b = random_operands(op, samples_per_op, rng.child(op.value))
        for name, hist in pipeline.flip_histograms(op, a, b, points).items():
            hists[name] = hist + hists.get(name, 0)
    histogram: Dict[str, Dict[int, int]] = {}
    multi: Dict[str, float] = {}
    for point in points:
        hist = hists[point.name]
        histogram[point.name] = {int(n): int(c)
                                 for n, c in enumerate(hist)
                                 if n >= 1 and c}
        faulty_total = int(hist[1:].sum())
        multi[point.name] = (float(hist[2:].sum() / faulty_total)
                             if faulty_total else 0.0)
    average = sum(multi.values()) / len(multi)
    return Fig5Result(histogram=histogram, multi_bit_fraction=multi,
                      average_multi_bit=average)


def render(result: Fig5Result) -> str:
    lines = ["Fig. 5 — bit flips per faulty instruction output"]
    for point, hist in result.histogram.items():
        lines.append(f"  {point}: multi-bit fraction = "
                     f"{result.multi_bit_fraction[point]:.1%}")
        total = sum(hist.values())
        for n_flips in sorted(hist):
            share = hist[n_flips] / max(1, total)
            bar = "#" * max(1, int(round(30 * share)))
            lines.append(f"    {n_flips:3d} flips: {share:6.1%} {bar}")
    lines.append(f"  average multi-bit fraction: "
                 f"{result.average_multi_bit:.1%} (paper: 64.5%)")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
