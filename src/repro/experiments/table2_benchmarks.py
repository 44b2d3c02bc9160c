"""Table II: benchmark inputs, dynamic instruction counts, classification.

Reports, for the scale in use, each benchmark's input descriptor, its
total dynamic instruction count (FP stream plus the per-benchmark
non-FP expansion), and the Table II classification criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.campaign.report import format_table
from repro.experiments import Option, comma_separated_names
from repro.experiments.context import BENCHMARKS, ExperimentContext
from repro.workloads import make_workload

TITLE = "Table II — benchmark inputs, instruction counts, classification"

OPTIONS = (
    Option("scale", str, "small", "workload scale (tiny/small/paper)"),
    Option("seed", int, 2021, "workload seed"),
    Option("benchmarks", comma_separated_names, BENCHMARKS,
           "comma-separated benchmark subset"),
)


@dataclass
class Table2Row:
    name: str
    input_descriptor: str
    fp_instructions: int
    total_instructions: int
    classification: str


@dataclass
class Table2Result:
    rows: List[Table2Row]
    scale: str


def run(context: Optional[ExperimentContext] = None,
        scale: str = "small", seed: int = 2021,
        benchmarks=None) -> Table2Result:
    rows: List[Table2Row] = []
    if context is not None:
        scale = context.scale
        for name in context.benchmarks:
            workload = context.runners[name].workload
            profile = context.profiles[name]
            rows.append(Table2Row(
                name=name,
                input_descriptor=workload.input_descriptor,
                fp_instructions=profile.fp_instructions,
                total_instructions=profile.total_instructions,
                classification=workload.classification,
            ))
        return Table2Result(rows=rows, scale=scale)
    from repro.campaign.runner import CampaignRunner

    for name in (benchmarks if benchmarks else BENCHMARKS):
        workload = make_workload(name, scale=scale, seed=seed)
        profile = CampaignRunner(workload, seed=seed).golden().profile
        rows.append(Table2Row(
            name=name,
            input_descriptor=workload.input_descriptor,
            fp_instructions=profile.fp_instructions,
            total_instructions=profile.total_instructions,
            classification=workload.classification,
        ))
    return Table2Result(rows=rows, scale=scale)


def render(result: Table2Result) -> str:
    table = format_table(
        ["App", "Input", "FP instr", "Total instr", "Classification"],
        [[row.name, row.input_descriptor, f"{row.fp_instructions:,}",
          f"{row.total_instructions:,}", row.classification]
         for row in result.rows],
    )
    return (f"Table II — benchmarks at scale {result.scale!r} "
            f"(paper inputs are 1e8-1e10 instructions; see DESIGN.md)\n"
            + table)


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
