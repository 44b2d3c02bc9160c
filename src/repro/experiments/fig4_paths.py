"""Fig. 4: distribution of the 1000 longest timing paths across the pipeline.

Static timing analysis over the gate-level stage netlists of the core.
Expected shape (paper): every near-critical path belongs to the FPU; all
non-FPU stages keep comfortable slack under the studied voltage-reduction
levels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

from repro.circuit.core_model import build_core_stages, is_fpu_stage
from repro.circuit.sta import (
    StaticTimingAnalysis,
    clock_period,
    path_distribution,
)
from repro.experiments import Option

TITLE = "Fig. 4 — distribution of the longest timing paths"

OPTIONS = (
    Option("k", int, 1000, "number of longest paths to collect"),
    Option("seed", int, 45, "netlist-generation seed"),
)


@dataclass
class Fig4Result:
    clock_ps: float
    paths_by_stage: Dict[str, int]
    critical_delay_by_stage: Dict[str, float]
    slack_by_stage: Dict[str, float]
    fpu_fraction: float

    @property
    def non_fpu_paths(self) -> int:
        return sum(n for stage, n in self.paths_by_stage.items()
                   if not is_fpu_stage(stage))


def run(context=None, k: int = 1000, seed: int = 45) -> Fig4Result:
    """STA the core and take the K longest paths (paper: K = 1000).

    Pure static analysis: ``context`` is accepted for API uniformity but
    unused (no workload traces are involved).
    """
    stages = build_core_stages(seed=seed)
    stage_list = list(stages.values())
    clock = clock_period(stage_list)
    paths = path_distribution(stage_list, k)
    counts = Counter(p.stage for p in paths)
    criticals = {
        name: StaticTimingAnalysis(netlist).critical_delay()
        for name, netlist in stages.items()
    }
    fpu_paths = sum(n for stage, n in counts.items() if is_fpu_stage(stage))
    return Fig4Result(
        clock_ps=clock,
        paths_by_stage=dict(counts),
        critical_delay_by_stage=criticals,
        slack_by_stage={name: clock - d for name, d in criticals.items()},
        fpu_fraction=fpu_paths / max(1, len(paths)),
    )


def render(result: Fig4Result) -> str:
    lines = [
        "Fig. 4 — distribution of the longest timing paths",
        f"  clock period (Eq. 1): {result.clock_ps:.1f} ps",
        f"  FPU share of the top paths: {result.fpu_fraction:.1%}",
        "",
        "  stage               critical (ps)   slack (ps)   top-K paths",
    ]
    for name, delay in sorted(result.critical_delay_by_stage.items(),
                              key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:18s} {delay:12.1f} {result.slack_by_stage[name]:12.1f}"
            f" {result.paths_by_stage.get(name, 0):12d}"
            f"   {'FPU' if is_fpu_stage(name) else ''}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
