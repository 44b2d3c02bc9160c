"""Fig. 7: IA-model per-bit injection probabilities per instruction type.

Characterises the IA-model on uniformly distributed random operands and
reports each type's error ratio and unconditional per-bit injection
probabilities at VR15/VR20.  Expected shape (paper): fp-mul most
error-prone; at VR15 only fp-mul and fp-sub can fail; fp-div and fp-add
join at VR20; conversions and all single-precision instructions are
error-free at both levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuit.liberty import VR15, VR20
from repro.errors import characterize_ia
from repro.errors.ia import IaModel
from repro.experiments import Option
from repro.fpu.formats import ALL_OPS, FpOp

TITLE = "Fig. 7 — IA-model bit error-injection probabilities"

OPTIONS = (
    Option("samples_per_op", int, 100_000,
           "random operand samples per instruction type"),
    Option("seed", int, 2021, "characterisation seed"),
)


@dataclass
class Fig7Result:
    model: IaModel
    error_ratios: Dict[str, Dict[FpOp, float]]
    ber: Dict[str, Dict[FpOp, np.ndarray]]   # unconditional P(bit injected)


def run(context=None, samples_per_op: int = 100_000, seed: int = 2021,
        model: Optional[IaModel] = None) -> Fig7Result:
    points = [VR15, VR20]
    if model is None and context is not None:
        model = context.ia
    if model is None:
        model = characterize_ia(points, samples_per_op=samples_per_op,
                                seed=seed)
    ratios: Dict[str, Dict[FpOp, float]] = {}
    ber: Dict[str, Dict[FpOp, np.ndarray]] = {}
    for point in points:
        stats = model.stats[point.name]
        ratios[point.name] = {op: st.error_ratio for op, st in stats.items()}
        ber[point.name] = {op: st.unconditional_ber()
                           for op, st in stats.items()}
    return Fig7Result(model=model, error_ratios=ratios, ber=ber)


def render(result: Fig7Result) -> str:
    lines = ["Fig. 7 — IA-model bit error-injection probabilities"]
    for point, ratios in result.error_ratios.items():
        lines.append(f"  {point}:")
        for op in ALL_OPS:
            ratio = ratios.get(op, 0.0)
            flag = "" if ratio else "   (error-free)"
            lines.append(f"    {op.value:12s} ER = {ratio:.3e}{flag}")
            if ratio:
                ber = result.ber[point][op]
                nz = np.nonzero(ber)[0]
                regions = {"sign": 0.0, "exponent": 0.0, "mantissa": 0.0}
                for bit in nz:
                    regions[op.fmt.bit_region(int(bit))] += ber[bit]
                lines.append(
                    f"        region mass: sign={regions['sign']:.2e} "
                    f"exp={regions['exponent']:.2e} "
                    f"mant={regions['mantissa']:.2e}"
                )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
