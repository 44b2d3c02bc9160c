"""Telemetry sinks: JSONL trace writer and human-readable summaries.

Two consumers of the collector's output:

- :class:`JsonlSink` appends one JSON line per closed span to a trace
  file (plus a final aggregated snapshot on close), flushed per line so
  a killed process loses at most the line being written.
  :func:`read_trace` tolerates that torn tail line — the same contract
  as the campaign journal.
- :func:`summary_table` renders a collector snapshot as the per-layer
  cost report printed by ``--telemetry`` CLI runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.core import Collector, SpanRecord, Stat

PathLike = Union[str, Path]


class JsonlSink:
    """Append-only JSONL span trace.

    The first line is a ``meta`` record; every closed span follows as its
    own flushed line.  ``close()`` appends the final aggregated snapshot
    so a trace file is self-contained for offline analysis.

    Beyond spans, the sink accepts arbitrary *framed records* through
    :meth:`emit`: any dict with its own ``type`` discriminator is written
    as one flushed line.  ``repro campaign --trace`` uses this to put the
    injected model's ``provenance`` record beside the spans.
    """

    def __init__(self, path: PathLike,
                 meta: Optional[Dict[str, Any]] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        header: Dict[str, Any] = {"type": "meta",
                                  "trace": "repro-telemetry", "version": 1}
        if meta:
            header.update(meta)
        self._write(header)

    def _write(self, payload: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(payload, separators=(",", ":"),
                                  default=str) + "\n")
        self._fh.flush()

    def on_span(self, record: SpanRecord) -> None:
        self._write(record.to_dict())

    def emit(self, payload: Dict[str, Any]) -> None:
        """Write one framed non-span record (must carry a ``type`` key)."""
        if "type" not in payload:
            raise ValueError("framed records need a 'type' discriminator")
        self._write(payload)

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def flush(self) -> None:
        """Force buffered lines to disk (teardown paths call this)."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self, collector: Optional[Collector] = None) -> None:
        if self._fh.closed:
            return
        if collector is not None:
            payload = {"type": "snapshot"}
            payload.update(collector.snapshot())
            self._write(payload)
        self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: PathLike) -> List[Dict[str, Any]]:
    """Load a JSONL trace, tolerating a torn (killed mid-write) tail line."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                events.append(json.loads(raw))
            except json.JSONDecodeError:
                # Only a SIGKILL mid-write produces this; the torn line
                # is by construction the last complete write attempt.
                continue
    return events


def span_summary(events: List[Dict[str, Any]]) -> List[Any]:
    """Aggregate span events by name: ``[(name, Stat-over-ms), ...]``.

    Rows are sorted by total time descending so the most expensive span
    family leads; ties break on name ascending, which keeps the order
    stable across runs whose totals happen to collide (zero-duration
    spans, torn traces).
    """
    stats: Dict[str, Stat] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        stat = stats.setdefault(str(event.get("name", "?")), Stat())
        stat.add(float(event.get("duration_ms", 0.0)))
    return sorted(stats.items(), key=lambda kv: (-kv[1].total, kv[0]))


def span_summary_table(events: List[Dict[str, Any]]) -> str:
    """Render :func:`span_summary` rows as an aligned text table."""
    rows = span_summary(events)
    lines: List[str] = ["span summary (by total time)"]
    if not rows:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    width = max(max(len(name) for name, _ in rows), len("name"))
    lines.append(f"  {'name':<{width}}  {'count':>9}  {'total ms':>12}  "
                 f"{'mean ms':>12}  {'min ms':>12}  {'max ms':>12}")
    for name, stat in rows:
        lines.append(
            f"  {name:<{width}}  {stat.count:>9,}  "
            f"{stat.total:>12.6g}  {stat.mean:>12.6g}  "
            f"{(stat.min if stat.count else 0.0):>12.6g}  "
            f"{(stat.max if stat.count else 0.0):>12.6g}"
        )
    return "\n".join(lines)


def spans_for_run(events: List[Dict[str, Any]],
                  run_key: str) -> List[Dict[str, Any]]:
    """Every span stamped with ``run_key``, in causal order.

    Pulls the spans a :class:`~repro.telemetry.core.TraceContext`
    annotated with the given run key — parent-side and stitched-in
    worker spans alike — ordered by wall-clock close time (the ``ts``
    attr the context stamps), with pid/path as a stable tie-break.
    """
    matched = [event for event in events
               if event.get("type") == "span"
               and event.get("attrs", {}).get("run_key") == run_key]
    matched.sort(key=lambda e: (e.get("attrs", {}).get("ts", 0.0),
                                e.get("attrs", {}).get("pid", 0),
                                e.get("path", "")))
    return matched


def _format_count(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}"


def summary_table(data: Dict[str, Any]) -> str:
    """Render a snapshot (``telemetry.snapshot()``) as aligned text."""
    counters: Dict[str, float] = data.get("counters", {})
    stats: Dict[str, Any] = data.get("stats", {})
    lines: List[str] = ["telemetry summary"]
    if counters:
        lines.append("  counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"    {name:<{width}}  "
                         f"{_format_count(counters[name])}")
    if stats:
        lines.append("  timings / distributions:")
        width = max(len(name) for name in stats)
        header = (f"    {'name':<{width}}  {'count':>9}  {'total':>12}  "
                  f"{'mean':>12}  {'min':>12}  {'max':>12}")
        lines.append(header)
        for name in sorted(stats):
            stat = (stats[name] if isinstance(stats[name], Stat)
                    else Stat.from_dict(stats[name]))
            lines.append(
                f"    {name:<{width}}  {stat.count:>9,}  "
                f"{stat.total:>12.6g}  {stat.mean:>12.6g}  "
                f"{(stat.min if stat.count else 0.0):>12.6g}  "
                f"{(stat.max if stat.count else 0.0):>12.6g}"
            )
    if len(lines) == 1:
        lines.append("  (no data collected)")
    return "\n".join(lines)
