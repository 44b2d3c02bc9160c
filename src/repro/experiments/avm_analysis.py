"""Section V.C: Application Vulnerability Metric analysis.

Three parts, mirroring the paper's discussion:

1. AVM per (benchmark, model, VR level) and the average AVM divergence of
   DA/IA vs WA (paper: 49.8 % on average),
2. AVM-guided Vmin selection per benchmark with the resulting power and
   energy savings (paper: k-means can run at 0.88 V -> up to 56 % saving,
   while DA would allow only ~10 % reduction -> 21 %),
3. energy savings when an error-prevention/replay mitigation is enabled
   (paper: up to 20 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign.adaptive import AdaptiveConfig
from repro.campaign.avm import EnergyAnalysis, avm_divergence
from repro.campaign.runner import CampaignResult
from repro.circuit.liberty import NOMINAL, OperatingPoint
from repro.experiments import Option, comma_separated_names, flag_bool
from repro.experiments.context import (
    BENCHMARKS,
    ExperimentContext,
    ensure_context,
)

TITLE = "Section V.C — AVM analysis, Vmin selection, energy savings"

OPTIONS = (
    Option("runs", int, 200, "injection runs per campaign cell"),
    Option("scale", str, "small", "workload scale (tiny/small/paper)"),
    Option("seed", int, 2021, "context/campaign seed"),
    Option("samples", int, 50_000, "characterisation samples per type"),
    Option("benchmarks", comma_separated_names, BENCHMARKS,
           "comma-separated benchmark subset"),
    Option("workers", int, 0,
           "characterization worker processes (0 = in-process)"),
    Option("cache_dir", str, None,
           "content-addressed model cache directory (unset = no cache)"),
    Option("adaptive", flag_bool, False,
           "stop each cell at the CI target instead of fixed-N"),
    Option("ci_target", float, 0.03,
           "adaptive stop half-width (the paper's ±margin)"),
    Option("min_runs", int, 100, "adaptive floor: never stop below this"),
    Option("importance", flag_bool, False,
           "importance-sample WA victims (HT-reweighted AVM)"),
)


@dataclass
class VminChoice:
    benchmark: str
    model: str
    point: OperatingPoint
    power_saving: float
    energy_saving: float


@dataclass
class AvmResult:
    avm_table: Dict[Tuple[str, str, str], float]
    divergence: Dict[str, float]
    vmin: List[VminChoice]
    mitigation: Dict[str, Tuple[str, float]]  # benchmark -> (point, saving)


def run(context: Optional[ExperimentContext] = None,
        campaign_results: Optional[List[CampaignResult]] = None,
        runs: int = 200, scale: str = "small",
        seed: int = 2021, samples: int = 50_000,
        benchmarks=None, workers: int = 0,
        cache_dir: Optional[str] = None,
        adaptive: bool = False, ci_target: float = 0.03,
        min_runs: int = 100, importance: bool = False) -> AvmResult:
    context = ensure_context(context, scale=scale, seed=seed,
                             samples=samples, benchmarks=benchmarks,
                             workers=workers, cache_dir=cache_dir)
    if campaign_results is None:
        config = None
        if adaptive or importance:
            config = AdaptiveConfig(ci_target=ci_target,
                                    min_runs=min_runs,
                                    importance=importance)
        campaign_results = context.run_campaigns(runs, adaptive=config,
                                                 importance=importance)

    table = {
        (r.workload, r.model, r.point): r.avm for r in campaign_results
    }
    divergence = avm_divergence(campaign_results)

    energy = EnergyAnalysis()
    vmin: List[VminChoice] = []
    by_model: Dict[Tuple[str, str], List[Tuple[OperatingPoint, float]]] = {}
    for result in campaign_results:
        point = next(p for p in context.points if p.name == result.point)
        by_model.setdefault((result.workload, result.model), []).append(
            (point, result.avm)
        )
    for (benchmark, model), sweep in sorted(by_model.items()):
        sweep = [(NOMINAL, 0.0)] + sorted(sweep, key=lambda s: -s[0].voltage)
        choice = energy.safe_point(sweep)
        vmin.append(VminChoice(
            benchmark=benchmark, model=model, point=choice,
            power_saving=energy.power_saving(choice),
            energy_saving=energy.energy_saving_with_guardband(choice),
        ))

    # Mitigation: error prevention lets the core undervolt through
    # non-zero-ER points by paying a per-error replay cost; use the WA
    # ratios (the accurate ones) per benchmark.
    mitigation: Dict[str, Tuple[str, float]] = {}
    for name, model in context.wa.items():
        profile = context.profiles[name]
        sweep = [(NOMINAL, 0.0)] + [
            (p, model.error_ratio(profile, p)) for p in context.points
        ]
        point, saving = energy.best_mitigated_point(sweep)
        mitigation[name] = (point.name, saving)

    return AvmResult(avm_table=table, divergence=divergence, vmin=vmin,
                     mitigation=mitigation)


def render(result: AvmResult) -> str:
    lines = ["Section V.C — Application Vulnerability Metric analysis", ""]
    lines.append("  AVM per (benchmark, model, VR):")
    for (benchmark, model, point), avm in sorted(result.avm_table.items()):
        lines.append(f"    {benchmark:8s} {model:3s} {point}: {avm:6.1%}")
    lines.append("")
    for model, delta in sorted(result.divergence.items()):
        lines.append(
            f"  {model}-model average AVM divergence vs WA: "
            f"{delta:.1f} points (paper: 49.8% average for DA/IA)"
        )
    lines.append("")
    lines.append("  AVM-guided Vmin and savings (AVM target = 0):")
    for choice in result.vmin:
        lines.append(
            f"    {choice.benchmark:8s} {choice.model:3s} -> "
            f"{choice.point.name} ({choice.point.voltage:.3f} V): "
            f"power -{choice.power_saving:.0%}, "
            f"energy -{choice.energy_saving:.0%}"
        )
    lines.append("")
    lines.append("  Best operating point with error-prevention mitigation:")
    for name, (point, saving) in sorted(result.mitigation.items()):
        lines.append(f"    {name:8s} -> {point}: energy saving "
                     f"{saving:.0%} (paper: up to 20%)")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
