"""Fig. 8: WA-model per-bit BER per benchmark and VR level.

For every benchmark, trace-level DTA yields the per-bit error ratios of
each instruction type actually executed.  Expected shape (paper):
workloads differ wildly (mg's high bits near zero at VR15 while srad's
are orders of magnitude higher); mantissa bits carry most of the error
mass; each bit has its own ratio (multi-bit, non-uniform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.experiments import Option, comma_separated_names
from repro.experiments.context import (
    BENCHMARKS,
    ExperimentContext,
    ensure_context,
)

TITLE = "Fig. 8 — WA-model per-bit BER per benchmark"

OPTIONS = (
    Option("scale", str, "small", "workload scale (tiny/small/paper)"),
    Option("seed", int, 2021, "context seed"),
    Option("samples", int, 50_000, "characterisation samples per type"),
    Option("benchmarks", comma_separated_names, BENCHMARKS,
           "comma-separated benchmark subset"),
    Option("workers", int, 0,
           "characterization worker processes (0 = in-process)"),
    Option("cache_dir", str, None,
           "content-addressed model cache directory (unset = no cache)"),
)


@dataclass
class Fig8Result:
    #: benchmark -> point -> op mnemonic -> per-bit BER
    ber: Dict[str, Dict[str, Dict[str, np.ndarray]]]
    #: benchmark -> point -> aggregate region mass
    region_mass: Dict[str, Dict[str, Dict[str, float]]]


def run(context: Optional[ExperimentContext] = None,
        scale: str = "small", seed: int = 2021,
        samples: int = 50_000, benchmarks=None,
        workers: int = 0,
        cache_dir: Optional[str] = None) -> Fig8Result:
    context = ensure_context(context, scale=scale, seed=seed,
                             samples=samples, benchmarks=benchmarks,
                             workers=workers, cache_dir=cache_dir)
    ber: Dict[str, Dict[str, Dict[str, np.ndarray]]] = {}
    mass: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, model in context.wa.items():
        ber[name] = {}
        mass[name] = {}
        for point in context.points:
            per_op: Dict[str, np.ndarray] = {}
            regions = {"sign": 0.0, "exponent": 0.0, "mantissa": 0.0}
            for op, faults in model.faults[point.name].items():
                if faults.ber is None:
                    continue
                per_op[op.value] = faults.ber
                for bit in np.nonzero(faults.ber)[0]:
                    regions[op.fmt.bit_region(int(bit))] += float(
                        faults.ber[bit]
                    )
            ber[name][point.name] = per_op
            mass[name][point.name] = regions
    return Fig8Result(ber=ber, region_mass=mass)


def render(result: Fig8Result) -> str:
    lines = ["Fig. 8 — WA-model per-bit BER per benchmark"]
    for name, per_point in result.ber.items():
        for point, per_op in per_point.items():
            regions = result.region_mass[name][point]
            total = sum(float(b.sum()) for b in per_op.values())
            lines.append(
                f"  {name:8s} {point}: total BER mass = {total:.3e}  "
                f"(sign {regions['sign']:.2e} / exp {regions['exponent']:.2e}"
                f" / mant {regions['mantissa']:.2e})"
            )
            for mnemonic, bits in sorted(per_op.items()):
                nz = np.nonzero(bits)[0]
                if nz.size == 0:
                    continue
                worst = int(nz[np.argmax(bits[nz])])
                lines.append(
                    f"      {mnemonic:12s} {nz.size:2d} error bits, worst "
                    f"bit {worst:2d} @ {bits[worst]:.3e}"
                )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
