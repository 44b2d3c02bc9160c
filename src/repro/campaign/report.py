"""Plain-text rendering of the paper's tables and figure series.

Every experiment driver returns structured data; these helpers print the
same rows/series the paper plots, so benches and examples can show
paper-shaped output without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.campaign.outcomes import Outcome
from repro.campaign.runner import CampaignResult


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def outcome_table(results: Sequence[CampaignResult]) -> str:
    """Fig. 9: outcome distributions per (benchmark, model, point)."""
    rows = []
    for result in sorted(results, key=lambda r: (r.workload, r.point,
                                                 r.model)):
        fractions = result.counts.fractions()
        rows.append([
            result.workload, result.point, result.model,
            f"{fractions[Outcome.MASKED]:6.1%}",
            f"{fractions[Outcome.SDC]:6.1%}",
            f"{fractions[Outcome.CRASH]:6.1%}",
            f"{fractions[Outcome.TIMEOUT]:6.1%}",
            f"{result.avm:6.1%}",
        ])
    return format_table(
        ["benchmark", "VR", "model", "Masked", "SDC", "Crash", "Timeout",
         "AVM"],
        rows,
    )


def executor_stats_table(results: Sequence[CampaignResult]) -> str:
    """Per-cell executor accounting: retries, watchdog kills, wall time."""
    rows = []
    for result in sorted(results, key=lambda r: (r.workload, r.point,
                                                 r.model)):
        stats = result.stats
        if stats is None:
            continue
        rows.append([
            result.workload, result.point, result.model,
            stats.runs, stats.executed, stats.resumed, stats.failed,
            stats.retries, stats.watchdog_kills, stats.harness_errors,
            "yes" if stats.degraded else "no",
            f"{stats.wall_time:7.2f}s",
            stats.workers if stats.workers else "serial",
        ])
    if not rows:
        return "(no executor statistics recorded)"
    return format_table(
        ["benchmark", "VR", "model", "runs", "exec", "resumed", "failed",
         "retries", "wd-kills", "harness-err", "degraded", "wall",
         "workers"],
        rows,
    )


def error_ratio_table(results: Sequence[CampaignResult],
                      reference_model: str = "WA") -> str:
    """Fig. 10: injected error ratios with fold-change vs the reference."""
    by_cell: Dict[tuple, Dict[str, float]] = {}
    for result in results:
        by_cell.setdefault((result.workload, result.point), {})[
            result.model
        ] = result.error_ratio
    rows = []
    for (workload, point), cell in sorted(by_cell.items()):
        ref = cell.get(reference_model)
        for model, ratio in sorted(cell.items()):
            fold = ""
            if ref is not None and model != reference_model:
                lo = max(min(ratio, ref), 1e-6)
                hi = max(max(ratio, ref), 1e-6)
                fold = f"{hi / lo:8.1f}x"
            rows.append([workload, point, model, f"{ratio:.3e}", fold])
    return format_table(
        ["benchmark", "VR", "model", "error ratio", f"vs {reference_model}"],
        rows,
    )


def feature_matrix(models: Iterable) -> str:
    """Table I: the error-model feature overview."""
    rows = []
    for model in models:
        row = model.feature_row()
        rows.append([
            row["model"], row["injection technique"],
            "yes" if row["voltage aware"] else "no",
            "yes" if row["instruction aware"] else "no",
            "yes" if row["workload aware"] else "no",
            "yes" if row["microarchitecture aware"] else "no",
        ])
    return format_table(
        ["model", "injection technique", "voltage", "instruction",
         "workload", "microarchitecture"],
        rows,
    )
