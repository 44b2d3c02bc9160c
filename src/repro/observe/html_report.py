"""Self-contained HTML campaign report: ``repro report --html``.

One file, zero external fetches: inline CSS, hand-rolled inline SVG, no
plotting or templating dependency.  The page renders

- the Fig. 9 outcome-distribution stacked bars per campaign cell,
- the Fig. 10-style AVM-vs-operating-point series (small multiples per
  benchmark, one line per error model),
- per-instruction-type per-bit injection heatmaps of the journaled runs'
  re-placed victims (:mod:`repro.observe.explain`),
- executor health (retries, watchdog kills, worker restarts, wall time),
- run drill-down tables with per-run "why SDC?" narratives of the
  replayed SDC runs,
- the telemetry counter/timing snapshot when one is supplied.

Every chart ships its data twice — marks for the eye, a collapsible data
table for accessibility and copy-paste — and adapts to dark mode via CSS
custom properties.  Colors follow the validated categorical palette
(identity by entity, fixed order, never cycled) and a single-hue
sequential ramp for magnitudes.
"""

from __future__ import annotations

import html as _html
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.outcomes import Outcome
from repro.campaign.runner import CampaignResult
from repro.observe.explain import (
    RunReplay,
    bitflip_histogram,
    masking_summary,
    narrative,
)
from repro.observe.state import CellEnded, journal_events
from repro.observe.trajectory import TrajectoryPoint, points_by_cell

__all__ = ["load_campaign_results", "render_html", "write_report"]

#: Fixed categorical assignment (validated palette, slots 1-4): the
#: outcome IS the entity, so the mapping never changes with filtering.
_OUTCOME_ORDER = ("Masked", "SDC", "Crash", "Timeout")
_LIGHT = {"Masked": "#2a78d6", "SDC": "#eb6834",
          "Crash": "#1baf7a", "Timeout": "#eda100"}
_DARK = {"Masked": "#3987e5", "SDC": "#d95926",
         "Crash": "#199e70", "Timeout": "#c98500"}
#: Model lines reuse the same validated slots in fixed sorted order.
_SERIES_LIGHT = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100"]
_SERIES_DARK = ["#3987e5", "#d95926", "#199e70", "#c98500"]
#: Single-hue sequential ramp endpoints (blue 100 -> 700) for magnitude.
_RAMP_LO = (0xCD, 0xE2, 0xFB)
_RAMP_HI = (0x0D, 0x36, 0x6B)


def _esc(value: Any) -> str:
    return _html.escape(str(value), quote=True)


def _ramp(frac: float) -> str:
    """Point on the sequential blue ramp, 0 = lightest, 1 = darkest."""
    frac = min(max(frac, 0.0), 1.0)
    rgb = tuple(round(lo + (hi - lo) * frac)
                for lo, hi in zip(_RAMP_LO, _RAMP_HI))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


# -- journal loading ----------------------------------------------------------
def load_campaign_results(journal_path) -> List[CampaignResult]:
    """Per-cell :class:`CampaignResult` objects of a journal, by cell key.

    The results of the :class:`~repro.observe.state.CellEnded` events
    :func:`~repro.observe.state.journal_events` replays, so reports see
    exactly the cells ``repro serve`` does.
    """
    results = [event.result for event in journal_events(journal_path)
               if isinstance(event, CellEnded)]
    return sorted(results, key=lambda r: (r.workload, r.model, r.point))


# -- chart pieces -------------------------------------------------------------
def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    """Inline legend: colored swatch + text-ink label per entry."""
    spans = "".join(
        f'<span class="lg"><span class="sw" style="background:{color}">'
        f'</span>{_esc(label)}</span>'
        for label, color in entries
    )
    return f'<div class="legend">{spans}</div>'


def _outcome_bars_svg(results: Sequence[CampaignResult]) -> str:
    """Fig. 9: one horizontal 100 % stacked bar per campaign cell."""
    rows = sorted(results, key=lambda r: (r.workload, r.point, r.model))
    label_w, bar_w, bar_h, gap, pad = 190, 560, 22, 10, 4
    height = len(rows) * (bar_h + gap) + 24
    parts = [f'<svg viewBox="0 0 {label_w + bar_w + 60} {height}" '
             f'role="img" aria-label="Outcome distribution per cell">']
    for i, result in enumerate(rows):
        y = i * (bar_h + gap) + 18
        fractions = result.counts.fractions()
        label = f"{result.workload} @ {result.point} ({result.model})"
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 7}" '
            f'text-anchor="end" class="lab">{_esc(label)}</text>')
        x = float(label_w)
        for outcome in _OUTCOME_ORDER:
            frac = fractions[Outcome(outcome)]
            w = frac * bar_w
            if w <= 0:
                continue
            # 2px surface gap between stacked segments; 4px data-end
            # rounding comes from the rx on the full-width clip below.
            seg_w = max(w - 2, 0.5)
            title = (f"{result.workload} @ {result.point} — {outcome}: "
                     f"{frac:.1%} ({result.counts.counts[Outcome(outcome)]} "
                     f"runs)")
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{seg_w:.1f}" '
                f'height="{bar_h}" rx="2" class="seg-{outcome.lower()}">'
                f'<title>{_esc(title)}</title></rect>')
            x += w
        parts.append(
            f'<text x="{label_w + bar_w + 8}" y="{y + bar_h - 7}" '
            f'class="lab">{result.avm:.1%}</text>')
    parts.append(f'<text x="{label_w + bar_w + 8}" y="12" class="lab">'
                 f'AVM</text>')
    parts.append("</svg>")
    return "".join(parts)


def _avm_series_svg(results: Sequence[CampaignResult]) -> str:
    """Fig. 10 flavor: AVM vs operating point, one panel per benchmark."""
    points = sorted({r.point for r in results})
    by_workload: Dict[str, Dict[str, Dict[str, float]]] = {}
    for r in results:
        by_workload.setdefault(r.workload, {}).setdefault(
            r.model, {})[r.point] = r.avm
    models = sorted({r.model for r in results})
    colors = {m: _SERIES_LIGHT[i % len(_SERIES_LIGHT)]
              for i, m in enumerate(models[:len(_SERIES_LIGHT)])}

    panel_w, panel_h, pad_l, pad_b, pad_t = 260, 170, 46, 26, 16
    plot_w, plot_h = panel_w - pad_l - 14, panel_h - pad_t - pad_b
    panels = []
    for workload in sorted(by_workload):
        series = by_workload[workload]
        parts = [f'<svg viewBox="0 0 {panel_w} {panel_h}" role="img" '
                 f'aria-label="AVM vs operating point for '
                 f'{_esc(workload)}">']
        # Recessive grid + y ticks at 0/50/100 %.
        for frac in (0.0, 0.5, 1.0):
            y = pad_t + plot_h * (1 - frac)
            parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" '
                         f'x2="{pad_l + plot_w}" y2="{y:.1f}" '
                         f'class="grid"/>')
            parts.append(f'<text x="{pad_l - 6}" y="{y + 4:.1f}" '
                         f'text-anchor="end" class="lab">'
                         f'{frac:.0%}</text>')
        for i, point in enumerate(points):
            x = pad_l + (plot_w * (i / max(len(points) - 1, 1))
                         if len(points) > 1 else plot_w / 2)
            parts.append(f'<text x="{x:.1f}" y="{panel_h - 8}" '
                         f'text-anchor="middle" class="lab">'
                         f'{_esc(point)}</text>')
        for model in models:
            data = series.get(model)
            if not data:
                continue
            coords = []
            for i, point in enumerate(points):
                if point not in data:
                    continue
                x = pad_l + (plot_w * (i / max(len(points) - 1, 1))
                             if len(points) > 1 else plot_w / 2)
                y = pad_t + plot_h * (1 - data[point])
                coords.append((x, y, point, data[point]))
            color = colors.get(model, "var(--ink-muted)")
            if len(coords) > 1:
                path = " ".join(f"{x:.1f},{y:.1f}" for x, y, *_ in coords)
                parts.append(f'<polyline points="{path}" fill="none" '
                             f'stroke="{color}" stroke-width="2"/>')
            for x, y, point, avm in coords:
                parts.append(
                    f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                    f'fill="{color}" stroke="var(--surface)" '
                    f'stroke-width="2"><title>{_esc(model)} @ '
                    f'{_esc(point)}: AVM {avm:.1%}</title></circle>')
            if coords:  # selective direct label at the line's end
                x, y = coords[-1][0], coords[-1][1]
                parts.append(f'<text x="{x + 7:.1f}" y="{y + 4:.1f}" '
                             f'class="lab">{_esc(model)}</text>')
        parts.append(f'<text x="{pad_l}" y="11" class="lab">'
                     f'{_esc(workload)}</text>')
        parts.append("</svg>")
        panels.append("".join(parts))
    legend = _legend([(m, colors[m]) for m in models if m in colors])
    return (legend if len(models) > 1 else "") + \
        '<div class="panels">' + "".join(panels) + "</div>"


def _heatmap_svg(histogram: Mapping[str, Sequence[int]]) -> str:
    """Per-op per-bit injected-flip heatmap (sequential blue ramp)."""
    ops = sorted(histogram)
    if not ops:
        return ""
    width = max(len(histogram[op]) for op in ops)
    peak = max((n for op in ops for n in histogram[op]), default=0)
    if peak == 0:
        return ""
    cell, gap, label_w, top = 12, 2, 110, 18
    svg_w = label_w + width * (cell + gap) + 10
    svg_h = top + len(ops) * (cell + gap) + 26
    parts = [f'<svg viewBox="0 0 {svg_w} {svg_h}" role="img" '
             f'aria-label="Injected bit flips per instruction type and '
             f'bit position">']
    for r, op in enumerate(ops):
        y = top + r * (cell + gap)
        parts.append(f'<text x="{label_w - 8}" y="{y + cell - 2}" '
                     f'text-anchor="end" class="lab">{_esc(op)}</text>')
        row = histogram[op]
        for bit in range(width):
            count = row[bit]
            # MSB on the left, matching the paper's bit-61..0 panels.
            x = label_w + (width - 1 - bit) * (cell + gap)
            fill = _ramp(count / peak) if count else "var(--cell-empty)"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'rx="2" fill="{fill}"><title>{_esc(op)} bit {bit}: '
                f'{count} flip(s)</title></rect>')
    # Bit axis: sign / exponent / mantissa boundaries for binary64.
    for bit, name in ((63, "63 S"), (52, "52 E"), (0, "0 M")):
        if bit < width:
            x = label_w + (width - 1 - bit) * (cell + gap) + cell / 2
            parts.append(f'<text x="{x:.0f}" y="{svg_h - 10}" '
                         f'text-anchor="middle" class="lab">{name}</text>')
    parts.append("</svg>")
    legend = (f'<div class="legend"><span class="lg">'
              f'<span class="sw" style="background:{_ramp(0.15)}"></span>'
              f'few flips</span><span class="lg">'
              f'<span class="sw" style="background:{_ramp(1.0)}"></span>'
              f'{peak} flips (peak)</span></div>')
    return legend + parts[0] + "".join(parts[1:])


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
           caption: Optional[str] = None) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    cap = f"<caption>{_esc(caption)}</caption>" if caption else ""
    return (f'<table>{cap}<thead><tr>{head}</tr></thead>'
            f'<tbody>{body}</tbody></table>')


def _data_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                summary: str = "Data table") -> str:
    return (f'<details><summary>{_esc(summary)}</summary>'
            f'{_table(headers, rows)}</details>')


# -- sections -----------------------------------------------------------------
def _section_outcomes(results: Sequence[CampaignResult]) -> str:
    legend = _legend([(o, f"var(--c-{o.lower()})") for o in _OUTCOME_ORDER])
    rows = []
    for r in sorted(results, key=lambda x: (x.workload, x.point, x.model)):
        fr = r.counts.fractions()
        rows.append([r.workload, r.point, r.model, r.counts.total]
                    + [f"{fr[Outcome(o)]:.1%}" for o in _OUTCOME_ORDER]
                    + [f"{r.avm:.1%}"])
    return (
        "<section><h2>Outcome distribution (Fig. 9)</h2>"
        + legend + _outcome_bars_svg(results)
        + _data_table(["benchmark", "VR", "model", "runs", *_OUTCOME_ORDER,
                       "AVM"], rows)
        + "</section>"
    )


def _section_avm(results: Sequence[CampaignResult]) -> str:
    rows = [[r.workload, r.point, r.model, f"{r.avm:.3f}",
             f"{r.error_ratio:.3e}"]
            for r in sorted(results,
                            key=lambda x: (x.workload, x.point, x.model))]
    return (
        "<section><h2>AVM vs operating point (Fig. 10)</h2>"
        + _avm_series_svg(results)
        + _data_table(["benchmark", "VR", "model", "AVM", "error ratio"],
                      rows)
        + "</section>"
    )


def _section_heatmap(runs: Sequence[RunReplay]) -> str:
    histogram = bitflip_histogram(runs)
    svg = _heatmap_svg(histogram)
    if not svg:
        return ""
    rows = []
    for op in sorted(histogram):
        row = histogram[op]
        total = sum(row)
        top = max(range(len(row)), key=lambda b: row[b])
        rows.append([op, total, f"bit {top} ({row[top]} flips)"])
    masking = masking_summary(runs)
    mask_rows = [[stage, n] for stage, n in sorted(masking.items())]
    return (
        "<section><h2>Injected bit flips by instruction type</h2>"
        + svg
        + _data_table(["instruction type", "total flips",
                       "most-flipped bit"], rows)
        + "<h3>Masking by pipeline stage</h3>"
        + _table(["stage", "victims"], mask_rows)
        + "</section>"
    )


def _section_health(results: Sequence[CampaignResult]) -> str:
    rows = []
    for r in sorted(results, key=lambda x: (x.workload, x.point, x.model)):
        stats = r.stats
        if stats is None:
            rows.append([r.workload, r.point, r.model]
                        + ["-"] * 7 + ["(no executor statistics)"])
            continue
        rows.append([
            r.workload, r.point, r.model, stats.runs, stats.executed,
            stats.resumed, stats.retries, stats.watchdog_kills,
            stats.worker_restarts,
            ("degraded" if stats.degraded else
             f"ok, {stats.wall_time:.2f}s"),
        ])
    return (
        "<section><h2>Executor health</h2>"
        + _table(["benchmark", "VR", "model", "runs", "executed", "resumed",
                  "retries", "wd-kills", "restarts", "status"], rows)
        + "</section>"
    )


def _section_runs(runs: Sequence[RunReplay],
                  drill_down_cap: int = 12) -> str:
    if not runs:
        return ""
    rows = []
    for r in runs:
        record = r.record
        rows.append([
            record.workload, record.point, record.model, record.run_index,
            record.outcome,
            "-" if r.sdc_magnitude is None else f"{r.sdc_magnitude:.2e}",
            len(r.victims), record.uarch_masked, r.corruption_size,
            f"{record.wall_ms:.1f}",
        ])
    interesting = [r for r in runs if r.record.outcome == "SDC"]
    interesting.sort(key=lambda r: -(r.sdc_magnitude or 0.0))
    if not interesting:
        interesting = [r for r in runs
                       if r.record.outcome in ("Crash", "Timeout")]
    drills = []
    for r in interesting[:drill_down_cap]:
        drills.append(
            f'<details><summary>{_esc(r.record.key)} — '
            f'{_esc(r.record.outcome)}</summary>'
            f'<pre>{_esc(narrative(r))}</pre></details>')
    return (
        f"<section><h2>Run drill-downs ({len(runs)} runs)</h2>"
        + _data_table(["benchmark", "VR", "model", "run", "outcome",
                       "sdc-mag", "victims", "masked", "corruption",
                       "wall ms"], rows,
                      summary=f"All {len(rows)} journaled runs")
        + ("<h3>Why SDC? Per-run drill-downs</h3>" + "".join(drills)
           if drills else "")
        + "</section>"
    )


def _trajectory_svg(cell: str, points: Sequence[TrajectoryPoint]) -> str:
    """One CI-convergence panel: AVM line inside its Wilson CI band."""
    panel_w, panel_h, pad_l, pad_b, pad_t = 320, 180, 46, 26, 16
    plot_w, plot_h = panel_w - pad_l - 14, panel_h - pad_t - pad_b
    max_runs = max(p.runs_done for p in points)
    y_top = min(1.0, max(max(p.ci_hi for p in points) * 1.15, 0.05))

    def xy(runs: int, value: float) -> Tuple[float, float]:
        x = pad_l + plot_w * (runs / max_runs if max_runs else 0.0)
        y = pad_t + plot_h * (1 - min(value, y_top) / y_top)
        return x, y

    parts = [f'<svg viewBox="0 0 {panel_w} {panel_h}" role="img" '
             f'aria-label="CI convergence for {_esc(cell)}">']
    for frac in (0.0, 0.5, 1.0):
        y = pad_t + plot_h * (1 - frac)
        parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" '
                     f'x2="{pad_l + plot_w}" y2="{y:.1f}" class="grid"/>')
        parts.append(f'<text x="{pad_l - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end" class="lab">'
                     f'{frac * y_top:.0%}</text>')
    for frac in (0.0, 0.5, 1.0):
        x = pad_l + plot_w * frac
        parts.append(f'<text x="{x:.1f}" y="{panel_h - 8}" '
                     f'text-anchor="middle" class="lab">'
                     f'{round(max_runs * frac)}</text>')
    # Wilson CI band: upper bound forward, lower bound back.
    band = [xy(p.runs_done, p.ci_hi) for p in points]
    band += [xy(p.runs_done, p.ci_lo) for p in reversed(points)]
    band_path = " ".join(f"{x:.1f},{y:.1f}" for x, y in band)
    parts.append(f'<polygon points="{band_path}" class="ci-band"/>')
    line = " ".join(f"{x:.1f},{y:.1f}"
                    for x, y in (xy(p.runs_done, p.avm) for p in points))
    parts.append(f'<polyline points="{line}" fill="none" '
                 f'stroke="var(--c-sdc)" stroke-width="2"/>')
    last = points[-1]
    x, y = xy(last.runs_done, last.avm)
    parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                 f'fill="var(--c-sdc)" stroke="var(--surface)" '
                 f'stroke-width="2"><title>{_esc(cell)}: AVM '
                 f'{last.avm:.1%} ±{last.half_width:.1%} after '
                 f'{last.runs_done} runs</title></circle>')
    parts.append(f'<text x="{pad_l}" y="11" class="lab">{_esc(cell)} '
                 f'— final ±{last.half_width:.1%}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _section_trajectory(points: Sequence[TrajectoryPoint]) -> str:
    """CI convergence per cell: the data adaptive sampling will consume."""
    grouped = {cell: pts for cell, pts
               in points_by_cell(list(points)).items() if pts}
    if not grouped:
        return ""
    panels = [_trajectory_svg(cell, grouped[cell])
              for cell in sorted(grouped)]
    rows = []
    for cell in sorted(grouped):
        last = grouped[cell][-1]
        stops = [p for p in grouped[cell] if p.stop_rule is not None]
        if stops:
            stop = stops[-1]
            stop_label = f"{stop.stop_rule} at n={stop.runs_done}"
        else:
            stop_label = "—"
        rows.append([cell, len(grouped[cell]), last.runs_done,
                     f"{last.avm:.3f}",
                     f"[{last.ci_lo:.3f}, {last.ci_hi:.3f}]",
                     f"{last.half_width:.3f}", stop_label,
                     f"{last.wall_s:.2f}"])
    return (
        "<section><h2>CI convergence (Wilson 95%)</h2>"
        '<div class="panels">' + "".join(panels) + "</div>"
        + _data_table(["cell", "points", "runs", "AVM", "95% CI",
                       "±half-width", "stop", "wall s"], rows,
                      summary="Trajectory endpoints per cell")
        + "</section>"
    )


def _section_telemetry(snapshot: Mapping[str, Any]) -> str:
    counters = snapshot.get("counters") or {}
    stats = snapshot.get("stats") or {}
    if not counters and not stats:
        return ""
    parts = ["<section><h2>Telemetry</h2>"]
    if counters:
        parts.append(_table(
            ["counter", "value"],
            [[name, f"{counters[name]:,.0f}"] for name in sorted(counters)],
            caption="Counters"))
    if stats:
        rows = []
        for name in sorted(stats):
            stat = stats[name]
            if not isinstance(stat, Mapping):
                stat = {"count": getattr(stat, "count", 0),
                        "total": getattr(stat, "total", 0.0),
                        "mean": getattr(stat, "mean", 0.0)}
            mean = (stat.get("mean") if "mean" in stat else
                    (stat.get("total", 0.0) / stat["count"]
                     if stat.get("count") else 0.0))
            rows.append([name, f"{stat.get('count', 0):,}",
                         f"{stat.get('total', 0.0):.6g}", f"{mean:.6g}"])
        parts.append(_table(["stat", "count", "total", "mean"], rows,
                            caption="Timings / distributions"))
    parts.append("</section>")
    return "".join(parts)


_STYLE = """
:root {
  --surface: #fcfcfb; --ink: #30302e; --ink-muted: #898781;
  --grid: #e1e0d9; --cell-empty: #f1f0eb; --border: #e1e0d9;
  --c-masked: #2a78d6; --c-sdc: #eb6834;
  --c-crash: #1baf7a; --c-timeout: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #e8e6e1; --ink-muted: #96948e;
    --grid: #3a3a37; --cell-empty: #262624; --border: #3a3a37;
    --c-masked: #3987e5; --c-sdc: #d95926;
    --c-crash: #199e70; --c-timeout: #c98500;
  }
}
html { background: var(--surface); }
body {
  font: 14px/1.45 system-ui, sans-serif; color: var(--ink);
  max-width: 960px; margin: 0 auto; padding: 24px 16px 64px;
}
h1 { font-size: 22px; } h2 { font-size: 17px; margin-top: 36px; }
h3 { font-size: 14px; }
.meta { color: var(--ink-muted); }
svg { display: block; max-width: 100%; height: auto; margin: 8px 0; }
svg .lab { font: 11px system-ui, sans-serif; fill: var(--ink-muted); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
.seg-masked { fill: var(--c-masked); } .seg-sdc { fill: var(--c-sdc); }
.seg-crash { fill: var(--c-crash); } .seg-timeout { fill: var(--c-timeout); }
.ci-band { fill: var(--c-sdc); fill-opacity: 0.18; stroke: none; }
.legend { margin: 6px 0; }
.legend .lg { margin-right: 14px; color: var(--ink); font-size: 12px; }
.legend .sw {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: baseline;
}
.panels { display: flex; flex-wrap: wrap; gap: 8px; }
.panels svg { flex: 0 1 260px; }
table { border-collapse: collapse; margin: 8px 0; font-size: 12.5px; }
caption { text-align: left; color: var(--ink-muted); padding: 2px 0; }
th, td { border: 1px solid var(--border); padding: 3px 8px; text-align: left; }
th { color: var(--ink-muted); font-weight: 600; }
details { margin: 6px 0; }
summary { cursor: pointer; color: var(--ink-muted); font-size: 12.5px; }
pre {
  background: var(--cell-empty); padding: 8px 10px; border-radius: 4px;
  overflow-x: auto; font-size: 12px;
}
"""


def _section_provenance(lines: Sequence[str]) -> str:
    """Where the injected error model(s) came from (characterisation
    benchmark, seed, sample budget, operand-trace digest)."""
    if not lines:
        return ""
    items = "".join(f"<li><code>{_esc(line)}</code></li>" for line in lines)
    return ("<section><h2>Model provenance</h2>"
            f"<ul>{items}</ul></section>")


def render_html(results: Sequence[CampaignResult],
                runs: Sequence[RunReplay] = (),
                telemetry_snapshot: Optional[Mapping[str, Any]] = None,
                title: str = "Timing-error campaign report",
                provenance_lines: Sequence[str] = (),
                trajectory_points: Sequence[TrajectoryPoint] = ()) -> str:
    """Render the whole report as one self-contained HTML string."""
    results = list(results)
    runs = list(runs)
    total_runs = sum(r.counts.total for r in results)
    sub = (f"{len(results)} campaign cell(s), {total_runs} classified "
           f"runs, {len(runs)} re-placed run(s)")
    sections = [_section_provenance(provenance_lines)]
    if results:
        sections.append(_section_outcomes(results))
        sections.append(_section_avm(results))
    sections.append(_section_trajectory(trajectory_points))
    sections.append(_section_heatmap(runs))
    if results:
        sections.append(_section_health(results))
    sections.append(_section_runs(runs))
    if telemetry_snapshot:
        sections.append(_section_telemetry(telemetry_snapshot))
    if not any(sections):
        sections = ["<section><p>No campaign data supplied.</p></section>"]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<h1>{_esc(title)}</h1>"
        f'<p class="meta">{_esc(sub)}</p>'
        + "".join(sections)
        + "</body></html>\n"
    )


def write_report(path, results: Sequence[CampaignResult],
                 runs: Sequence[RunReplay] = (),
                 telemetry_snapshot: Optional[Mapping[str, Any]] = None,
                 title: str = "Timing-error campaign report",
                 provenance_lines: Sequence[str] = (),
                 trajectory_points: Sequence[TrajectoryPoint] = ()) -> Path:
    """Render and write the report; returns the written path."""
    out = Path(path)
    out.write_text(
        render_html(results, runs, telemetry_snapshot,
                    title=title, provenance_lines=provenance_lines,
                    trajectory_points=trajectory_points),
        encoding="utf-8",
    )
    return out
