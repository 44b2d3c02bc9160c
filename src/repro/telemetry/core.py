"""Telemetry core: hierarchical spans, counters and stat accumulators.

Design constraints (why this module looks the way it does):

- **Off-by-default-cheap.**  The whole pipeline is instrumented, including
  hot loops (event simulation, DTA batches, campaign runs), so the
  disabled path must cost next to nothing.  Every public entry point
  loads one module-global, compares against ``None`` and returns — no
  allocation, no locking, no time syscall.  ``span()`` returns a shared
  immutable no-op object when disabled.
- **Deterministic results.**  Telemetry never touches RNG streams and is
  invisible to classification: enabling it must leave campaign outcomes
  bit-identical.  Only wall-clock readings differ between runs.
- **Fork-friendly.**  Campaign workers are forked children; they inherit
  the enabled collector, zero it (:func:`reset`), accumulate locally and
  ship deltas (:meth:`Collector.drain`) over the existing result pipe for
  the parent to :func:`merge` — counters add, stats merge, span trees
  stay per-process.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Collector",
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
    "reset",
    "set_trace_context",
    "snapshot",
    "span",
    "timed",
]


class Stat:
    """Streaming accumulator: count / total / min / max of observations."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self, count: int = 0, total: float = 0.0,
                 min_value: float = float("inf"),
                 max_value: float = float("-inf")):
        self.count = count
        self.total = total
        self.min = min_value
        self.max = max_value

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Stat") -> None:
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"count": self.count, "total": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "Stat":
        stat = cls()
        stat.count = int(data.get("count", 0))
        stat.total = float(data.get("total", 0.0))
        if stat.count:
            stat.min = float(data.get("min", 0.0))
            stat.max = float(data.get("max", 0.0))
        return stat

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Stat(count={self.count}, total={self.total:.6g}, "
                f"mean={self.mean:.6g})")


@dataclass(frozen=True)
class TraceContext:
    """Causal coordinates stamped onto spans for cross-process stitching.

    Set once per campaign (``campaign_id``), narrowed per cell and per
    run (``for_cell`` / ``for_run``), and inherited by forked workers —
    so a span closed in a worker carries the same ``run_key`` as the
    parent-side spans and journal record for that run, and
    ``repro trace query --run N --explain`` can reassemble the full
    causal trace across processes.  Contexts are immutable; narrowing
    returns a new value, letting callers restore the previous one in a
    ``finally``.
    """

    campaign_id: str
    cell: str = ""
    run_key: str = ""
    attempt: int = 0

    def for_cell(self, cell: str) -> "TraceContext":
        return replace(self, cell=cell, run_key="", attempt=0)

    def for_run(self, run_key: str, attempt: int = 0) -> "TraceContext":
        return replace(self, run_key=run_key, attempt=attempt)

    def to_attrs(self) -> Dict[str, Any]:
        """The context as span attributes (empty fields omitted)."""
        attrs: Dict[str, Any] = {"campaign_id": self.campaign_id}
        if self.cell:
            attrs["cell"] = self.cell
        if self.run_key:
            attrs["run_key"] = self.run_key
            attrs["attempt"] = self.attempt
        return attrs


class SpanRecord:
    """One closed span, as handed to sinks."""

    __slots__ = ("name", "path", "depth", "duration_s", "attrs")

    def __init__(self, name: str, path: str, depth: int,
                 duration_s: float, attrs: Optional[Dict[str, Any]]):
        self.name = name
        self.path = path
        self.depth = depth
        self.duration_s = duration_s
        self.attrs = attrs or {}

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "type": "span", "name": self.name, "path": self.path,
            "depth": self.depth, "duration_ms": self.duration_s * 1000.0,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


class Collector:
    """Aggregation point for one process's telemetry.

    Counters and stats are always aggregated in memory (cheap); sinks
    additionally receive every closed :class:`SpanRecord` (the JSONL
    trace writer uses this).  Thread-safe for counters/stats; the span
    stack is thread-local so concurrent threads nest independently.
    """

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.stats: Dict[str, Stat] = {}
        self._sinks: List[Any] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_buffer: Optional[List[Dict[str, Any]]] = None
        self._span_buffer_limit = 0
        self._span_buffer_dropped = 0

    # -- sinks ----------------------------------------------------------------
    def add_sink(self, sink: Any) -> None:
        """Attach a sink with an ``on_span(record)`` method."""
        self._sinks.append(sink)

    def detach_sinks(self) -> List[Any]:
        """Remove and return every sink without closing it.

        Forked campaign workers call this on entry: the inherited sinks
        wrap file handles whose offsets are shared with the parent, so a
        worker writing spans (or dying mid-write) would interleave with
        — and potentially tear — the parent's trace.  Workers keep
        aggregating counters/stats and ship them over the result pipe;
        only the parent writes the trace file.
        """
        detached = self._sinks
        self._sinks = []
        return detached

    def buffer_spans(self, limit: int = 256) -> None:
        """Buffer closed spans for shipping instead of writing to sinks.

        Sink-less forked workers call this when a :class:`TraceContext`
        is active: closed spans queue (bounded — a hot loop cannot grow
        the result-pipe message without bound) and leave with the next
        :meth:`drain`, so the parent can stitch them into its trace
        file.  Spans past the limit are counted, not kept.
        """
        with self._lock:
            if self._span_buffer is None:
                self._span_buffer = []
            self._span_buffer_limit = limit

    # -- counters & stats -----------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.add(value)

    # -- spans ----------------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self, name: str) -> str:
        stack = self._stack()
        stack.append(name)
        return "/".join(stack)

    def close_span(self, name: str, path: str, duration_s: float,
                   attrs: Optional[Dict[str, Any]]) -> None:
        stack = self._stack()
        if stack and stack[-1] == name:
            stack.pop()
        self.observe(name, duration_s)
        if not self._sinks and self._span_buffer is None:
            return
        ctx = _TRACE_CTX
        if ctx is not None:
            # Stamp causal coordinates (plus pid and a wall-clock epoch
            # for cross-process ordering) onto the record.  Wall time
            # never feeds back into campaign state, so determinism of
            # outcomes is untouched.
            merged = dict(attrs) if attrs else {}
            merged.update(ctx.to_attrs())
            merged["pid"] = os.getpid()
            merged["ts"] = time.time()
            attrs = merged
        record = SpanRecord(name, path, path.count("/"),
                            duration_s, attrs)
        for sink in self._sinks:
            sink.on_span(record)
        if self._span_buffer is not None:
            with self._lock:
                if len(self._span_buffer) < self._span_buffer_limit:
                    self._span_buffer.append(record.to_dict())
                else:
                    self._span_buffer_dropped += 1

    # -- snapshots & merging --------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Copy of the aggregated state (JSON-serialisable)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "stats": {k: s.to_dict() for k, s in self.stats.items()},
            }

    def drain(self) -> Dict[str, Any]:
        """Snapshot and reset: the delta since the previous drain.

        Forked campaign workers ship these deltas to the orchestrator,
        which merges them; draining (rather than re-sending the running
        totals) makes the merge idempotent per message.
        """
        with self._lock:
            out = {
                "counters": self.counters,
                "stats": {k: s.to_dict() for k, s in self.stats.items()},
            }
            self.counters = {}
            self.stats = {}
            if self._span_buffer:
                out["spans"] = self._span_buffer
                self._span_buffer = []
            if self._span_buffer_dropped:
                out["spans_dropped"] = self._span_buffer_dropped
                self._span_buffer_dropped = 0
        return out

    def merge_snapshot(self, data: Dict[str, Any]) -> None:
        """Fold a snapshot/drain from another process into this one."""
        with self._lock:
            for name, n in data.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + n
            for name, payload in data.get("stats", {}).items():
                stat = self.stats.get(name)
                if stat is None:
                    self.stats[name] = Stat.from_dict(payload)
                else:
                    stat.merge(Stat.from_dict(payload))
        # Re-emit spans shipped by a worker into this process's sinks,
        # outside the lock: sinks do file IO.  Worker spans already
        # carry their TraceContext attrs (pid, run_key, ...), so the
        # trace file ends up with one stitched causal record stream.
        spans = data.get("spans")
        if spans and self._sinks:
            for payload in spans:
                record = SpanRecord(
                    payload.get("name", "?"), payload.get("path", ""),
                    int(payload.get("depth", 0)),
                    float(payload.get("duration_ms", 0.0)) / 1000.0,
                    payload.get("attrs"))
                for sink in self._sinks:
                    sink.on_span(record)
        dropped = data.get("spans_dropped", 0)
        if dropped:
            self.count("trace.spans_dropped", dropped)

    def reset(self) -> None:
        with self._lock:
            self.counters = {}
            self.stats = {}
            if self._span_buffer is not None:
                self._span_buffer = []
            self._span_buffer_dropped = 0


# -- module-level fast path --------------------------------------------------
#: The active collector, or None when telemetry is disabled.  Every probe
#: reads this exactly once; ``None`` is the no-op fast path.
_ACTIVE: Optional[Collector] = None

#: The current trace context, or None when stitching is off.  A process
#: global rather than thread-local on purpose: campaign workers are
#: single-threaded forks that inherit the parent's value, and the
#: parent narrows it only from the orchestrating thread.
_TRACE_CTX: Optional[TraceContext] = None


def set_trace_context(ctx: Optional[TraceContext]) -> None:
    """Install (or, with ``None``, clear) the current trace context."""
    global _TRACE_CTX
    _TRACE_CTX = ctx


def get_trace_context() -> Optional[TraceContext]:
    return _TRACE_CTX


def clear_trace_context() -> None:
    global _TRACE_CTX
    _TRACE_CTX = None


class _NullSpan:
    """Shared no-op span: what ``span()`` hands out when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times its body, records itself on exit."""

    __slots__ = ("_collector", "name", "path", "attrs", "_start")

    def __init__(self, collector: Collector, name: str,
                 attrs: Optional[Dict[str, Any]]):
        self._collector = collector
        self.name = name
        self.path = ""
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs) -> "_Span":
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self.path = self._collector.open_span(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._start
        self._collector.close_span(self.name, self.path, duration,
                                   self.attrs)
        return False


def enabled() -> bool:
    """Whether telemetry is currently collecting."""
    return _ACTIVE is not None


def enable(collector: Optional[Collector] = None) -> Collector:
    """Start collecting (idempotent); returns the active collector."""
    global _ACTIVE
    if collector is not None:
        _ACTIVE = collector
    elif _ACTIVE is None:
        _ACTIVE = Collector()
    return _ACTIVE


def disable() -> None:
    """Stop collecting and drop the active collector."""
    global _ACTIVE
    _ACTIVE = None


def get_collector() -> Optional[Collector]:
    return _ACTIVE


def span(name: str, **attrs):
    """Context manager timing a block under ``name``.

    Spans nest: the record's ``path`` joins all open span names of the
    current thread with '/'.  Disabled: returns a shared no-op object.
    """
    collector = _ACTIVE
    if collector is None:
        return _NULL_SPAN
    return _Span(collector, name, attrs or None)


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to the monotonic counter ``name`` (no-op when disabled)."""
    collector = _ACTIVE
    if collector is None:
        return
    collector.count(name, n)


def observe(name: str, value: float) -> None:
    """Record one observation into the ``name`` distribution."""
    collector = _ACTIVE
    if collector is None:
        return
    collector.observe(name, value)


def snapshot() -> Dict[str, Any]:
    """Snapshot of the active collector ({} when disabled)."""
    collector = _ACTIVE
    if collector is None:
        return {"counters": {}, "stats": {}}
    return collector.snapshot()


def merge(data: Dict[str, Any]) -> None:
    """Merge a snapshot from another process (no-op when disabled)."""
    collector = _ACTIVE
    if collector is None:
        return
    collector.merge_snapshot(data)


def reset() -> None:
    """Zero the active collector (forked children call this on entry)."""
    collector = _ACTIVE
    if collector is not None:
        collector.reset()


def timed(name: str) -> Callable:
    """Decorator form of :func:`span` for whole functions."""
    def decorate(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            collector = _ACTIVE
            if collector is None:
                return fn(*args, **kwargs)
            with _Span(collector, name, None):
                return fn(*args, **kwargs)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper
    return decorate
