"""Lightweight, zero-dependency instrumentation for the DTA pipeline.

The framework's cost concentrates in a handful of opaque hot loops —
event-driven gate simulation, vectorised DTA batches, thousand-run
campaign cells.  This package makes that cost visible without making it
worse:

- **Spans** — ``with telemetry.span("errors.wa"):`` times a block;
  spans nest, and the full open-span path rides on every record.
  ``@telemetry.timed("name")`` is the decorator form.
- **Counters / distributions** — ``telemetry.count("bitsim.gate_evals", n)``
  and ``telemetry.observe("campaign.run_ms", ms)`` aggregate monotonic
  totals and count/total/min/max stats.
- **Sinks** — an in-memory aggregator (the collector itself), an
  append-only JSONL trace writer (:class:`JsonlSink`, torn-tail-tolerant
  reader :func:`read_trace`), and a text :func:`summary_table`.

Telemetry is **off by default** and the disabled path is a single global
load per probe — cheap enough to leave probes in hot loops permanently.
Enabling it never perturbs results: no RNG stream is touched, so
campaigns stay bit-identical with telemetry on.

Typical session::

    from repro import telemetry
    from repro.telemetry.sinks import JsonlSink, summary_table

    collector = telemetry.enable()
    collector.add_sink(JsonlSink("trace.jsonl"))
    ...  # run characterisation / campaigns
    print(summary_table(telemetry.snapshot()))
    telemetry.disable()

Forked campaign workers inherit the enabled collector, reset it, and
ship per-run deltas back over the result pipe; the orchestrator merges
them, so counters are campaign-global even in pool mode.
"""

from repro.telemetry.core import (
    Collector,
    SpanRecord,
    Stat,
    count,
    disable,
    enable,
    enabled,
    get_collector,
    merge,
    observe,
    reset,
    snapshot,
    span,
    timed,
)
from repro.telemetry.core import (
    TraceContext,
    clear_trace_context,
    get_trace_context,
    set_trace_context,
)
from repro.telemetry.export import render_prometheus
from repro.telemetry.sinks import (
    JsonlSink,
    read_trace,
    span_summary,
    span_summary_table,
    spans_for_run,
    summary_table,
)

__all__ = [
    "Collector",
    "JsonlSink",
    "SpanRecord",
    "Stat",
    "TraceContext",
    "clear_trace_context",
    "count",
    "disable",
    "enable",
    "enabled",
    "get_collector",
    "get_trace_context",
    "merge",
    "observe",
    "read_trace",
    "render_prometheus",
    "reset",
    "set_trace_context",
    "snapshot",
    "span",
    "span_summary",
    "span_summary_table",
    "spans_for_run",
    "summary_table",
    "timed",
]
