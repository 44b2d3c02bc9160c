"""Injection flight recorder: capture, emit, load and query run records.

The recorder follows the telemetry discipline exactly:

- **Off-by-default-cheap.**  Every probe loads one module global and
  returns when it is ``None`` — recorder-off campaigns pay a dict load
  per run, nothing more.
- **Deterministic.**  Capture only *reads* state the run already
  produced (plan, placement, outcome); it never touches an RNG stream,
  so recorder-on campaigns are bit-identical to recorder-off ones.
- **Fork-friendly.**  Forked campaign workers inherit the enabled
  recorder and *capture* (``RunExecution.flight`` rides the existing
  result pipe) but never emit: only the orchestrating parent writes the
  trace file, so worker deaths cannot tear it.

Emission goes through any sink with an ``emit(dict)`` method — in
practice the :class:`~repro.telemetry.sinks.JsonlSink` already carrying
the span trace, where flight records appear as a framed ``type:
"flight"`` line.  Without a sink, records accumulate in memory on the
recorder (the test/library mode).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.observe.records import (
    RECORD_TYPE,
    FlightRecord,
    bitflip_histogram,
    masking_summary,
    outcome_summary,
)

__all__ = [
    "FlightRecorder",
    "begin_capture",
    "disable",
    "emit_run",
    "emit_truncated",
    "enable",
    "enabled",
    "explain",
    "filter_records",
    "get_recorder",
    "load_records",
    "records_table",
    "summary_tables",
]


class FlightRecorder:
    """Collects finished flight records, in memory and/or into a sink."""

    def __init__(self, sink: Optional[Any] = None, keep_in_memory: bool = True):
        self.sink = sink
        self.keep_in_memory = keep_in_memory or sink is None
        self.records: List[FlightRecord] = []
        self.emitted = 0

    def emit(self, record: FlightRecord) -> None:
        self.emitted += 1
        if self.sink is not None:
            self.sink.emit(record.to_dict())
        if self.keep_in_memory:
            self.records.append(record)

    def flush(self) -> None:
        if self.sink is not None and hasattr(self.sink, "flush"):
            self.sink.flush()


# -- module-level fast path ---------------------------------------------------
_ACTIVE: Optional[FlightRecorder] = None


def enabled() -> bool:
    """Whether flight recording is currently capturing."""
    return _ACTIVE is not None


def enable(sink: Optional[Any] = None,
           keep_in_memory: bool = True) -> FlightRecorder:
    """Start recording (idempotent without arguments)."""
    global _ACTIVE
    if sink is not None or _ACTIVE is None:
        _ACTIVE = FlightRecorder(sink, keep_in_memory=keep_in_memory)
    return _ACTIVE


def disable() -> None:
    """Stop recording and drop the active recorder."""
    global _ACTIVE
    _ACTIVE = None


def get_recorder() -> Optional[FlightRecorder]:
    return _ACTIVE


def begin_capture(workload: str, model: str, point: str, run_index: int,
                  seed: int, stream: str) -> Optional[Dict[str, Any]]:
    """Open a capture payload for one run (``None`` when disabled).

    The runner fills the payload in as the causal chain unfolds; the
    executor finishes it (wall time, retries) and emits.  A plain dict
    so it crosses the worker result pipe unchanged.
    """
    if _ACTIVE is None:
        return None
    return {
        "workload": workload, "model": model, "point": point,
        "run_index": run_index, "seed": seed, "stream": stream,
        "victims": [], "injected": True, "corruption_size": 0,
        "outcome": "",
    }


def emit_run(payload: Optional[Dict[str, Any]], *, wall_ms: float = 0.0,
             retries: int = 0) -> Optional[FlightRecord]:
    """Finish and emit a captured payload (parent/serial side only)."""
    recorder = _ACTIVE
    if recorder is None or payload is None:
        return None
    payload = dict(payload)
    payload["wall_ms"] = wall_ms
    payload["retries"] = retries
    record = FlightRecord.from_dict(payload)
    recorder.emit(record)
    return record


def emit_truncated(workload: str, model: str, point: str, run_index: int,
                   seed: int, stream: str, outcome: str, *,
                   watchdog: bool = False, unexpected: Optional[str] = None,
                   wall_ms: float = 0.0,
                   retries: int = 0) -> Optional[FlightRecord]:
    """Emit a partial record for a run whose worker died mid-flight.

    The victim chain is gone with the worker; identity + outcome are
    still recorded (``truncated=True``) so the trace accounts for every
    classified run.
    """
    recorder = _ACTIVE
    if recorder is None:
        return None
    record = FlightRecord(
        workload=workload, model=model, point=point, run_index=run_index,
        seed=seed, stream=stream, outcome=outcome, watchdog=watchdog,
        unexpected=unexpected, wall_ms=wall_ms, retries=retries,
        truncated=True,
    )
    recorder.emit(record)
    return record


# -- query API ---------------------------------------------------------------
def load_records(path) -> List[FlightRecord]:
    """Flight records of a JSONL trace (torn tail lines tolerated)."""
    from repro.telemetry.sinks import read_trace

    return [FlightRecord.from_dict(event) for event in read_trace(path)
            if event.get("type") == RECORD_TYPE]


def filter_records(records: Iterable[FlightRecord],
                   workload: Optional[str] = None,
                   model: Optional[str] = None,
                   point: Optional[str] = None,
                   outcome: Optional[str] = None,
                   run_index: Optional[int] = None) -> List[FlightRecord]:
    """Subset of ``records`` matching every given filter (case-insensitive)."""
    def norm(value):
        return value.lower() if isinstance(value, str) else value

    out = []
    for record in records:
        if workload is not None and norm(record.workload) != norm(workload):
            continue
        if model is not None and norm(record.model) != norm(model):
            continue
        if point is not None and norm(record.point) != norm(point):
            continue
        if outcome is not None and norm(record.outcome) != norm(outcome):
            continue
        if run_index is not None and record.run_index != run_index:
            continue
        out.append(record)
    return out


def explain(record: FlightRecord) -> str:
    """Per-run drill-down: the "why was this run an SDC?" narrative.

    Reconstructs the full chain — model -> victim bitmask -> placement
    cycle -> masking verdict -> outcome — from the record alone.
    """
    lines = [
        f"run {record.stream or record.run_index} "
        f"(seed {record.seed})",
        f"  model {record.model} on {record.workload} @ {record.point}",
    ]
    if not record.truncated:
        if not record.injected:
            lines.append("  plan: no victims (model planned an error-free "
                         "run) -> trivially Masked")
        for victim in record.victims:
            bits = ",".join(str(b) for b in victim.flipped_bits) or "-"
            lines.append(
                f"  victim {victim.op}[{victim.index}] "
                f"bitmask 0x{victim.bitmask:016x} (bits {bits}) "
                f"placed at cycle {victim.cycle}"
            )
            if victim.masked:
                lines.append(f"    uarch-masked ({victim.mask_cause}): "
                             f"never reached architectural state")
            else:
                lines.append("    survived the pipeline -> corrupted "
                             "architectural state")
        lines.append(f"  effective corruption map: "
                     f"{record.corruption_size} register write(s)")
    else:
        lines.append("  [truncated] worker died before shipping the "
                     "victim chain")
    outcome_line = f"  outcome: {record.outcome}"
    if record.sdc_magnitude is not None:
        outcome_line += (f" (relative output error "
                         f"{record.sdc_magnitude:.3e})")
    if record.watchdog:
        outcome_line += " [wall-clock watchdog]"
    if record.unexpected:
        outcome_line += f" [unexpected: {record.unexpected}]"
    lines.append(outcome_line)
    lines.append(f"  executor: {record.wall_ms:.1f} ms wall, "
                 f"{record.retries} harness retrie(s)")
    return "\n".join(lines)


def records_table(records: Iterable[FlightRecord]) -> str:
    """Aligned one-line-per-record overview (the query CLI's default)."""
    from repro.campaign.report import format_table

    rows = []
    for record in records:
        masks = " ".join(f"{v.op}[{v.index}]^0x{v.bitmask:x}"
                         for v in record.victims) or "-"
        rows.append([
            record.workload, record.point, record.model, record.run_index,
            record.outcome,
            ("-" if record.sdc_magnitude is None
             else f"{record.sdc_magnitude:.2e}"),
            record.uarch_masked,
            masks if len(masks) <= 40 else masks[:37] + "...",
        ])
    if not rows:
        return "(no flight records match)"
    return format_table(
        ["benchmark", "VR", "model", "run", "outcome", "sdc-mag",
         "masked", "victims"],
        rows,
    )


def summary_tables(records: List[FlightRecord]) -> str:
    """Derived aggregate tables: outcomes, masking stages, per-bit flips."""
    from repro.campaign.report import format_table

    parts = []
    outcomes = outcome_summary(records)
    if outcomes:
        parts.append("outcomes:")
        parts.append(format_table(
            ["outcome", "runs"],
            [[name, n] for name, n in sorted(outcomes.items())],
        ))
    masking = masking_summary(records)
    total_victims = sum(masking.values())
    if total_victims:
        parts.append("masking by pipeline stage:")
        parts.append(format_table(
            ["stage", "victims", "fraction"],
            [[name, n, f"{n / total_victims:6.1%}"]
             for name, n in sorted(masking.items())],
        ))
    histogram = bitflip_histogram(records)
    for op, row in sorted(histogram.items()):
        nonzero = [(bit, n) for bit, n in enumerate(row) if n]
        if not nonzero:
            continue
        peak = max(n for _, n in nonzero)
        parts.append(f"bit flips injected into {op} "
                     f"({sum(n for _, n in nonzero)} total):")
        for bit, n in reversed(nonzero):
            bar = "#" * max(1, round(30 * n / peak))
            parts.append(f"  bit {bit:2d}  {n:6d}  {bar}")
    return "\n".join(parts) if parts else "(no flight records)"
