"""Prometheus text exposition: metric families and their encoder.

A :class:`Family` is one immutable metric family (``counter``, ``gauge``
or ``summary``) whose samples are keyed by a tuple of label values.
``/metrics`` builds its families at scrape time and
:func:`render_prometheus` encodes them in the text exposition format
(version 0.0.4).  Summaries expose the standard ``_count`` / ``_sum``
pair plus non-standard ``_min`` / ``_max`` gauges, which scrapers that
only understand the standard pair simply ignore.

Naming scheme (DESIGN.md §13): every family is ``repro_<area>_<noun>``,
counters end in ``_total``, units ride in the suffix (``_ms``, ``_s``),
and telemetry counters map ``a.b.c`` → ``repro_a_b_c_total``.
Stdlib-only: the control plane pulls in no client library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, List, Mapping, Tuple

from repro.telemetry.core import Stat

__all__ = [
    "Family",
    "escape_help",
    "escape_label_value",
    "render_prometheus",
    "sanitize_metric_name",
    "with_telemetry",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_KINDS = ("counter", "gauge", "summary")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary dotted probe name into a legal metric name."""
    cleaned = _SANITIZE_RE.sub("_", name)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


@dataclass(frozen=True)
class Family:
    """One metric family: shared HELP/TYPE, one sample per label tuple.

    Sample values are numbers, or a :class:`Stat` for summaries.  Names
    and label arity are validated on construction, so a malformed family
    fails where it is built, not in a scraper.
    """

    name: str
    kind: str
    help: str = ""
    labels: Tuple[str, ...] = ()
    samples: Mapping[Tuple[str, ...], Any] = field(default_factory=dict)

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid metric name: {self.name!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")
        for key in self.samples:
            if len(key) != len(self.labels):
                raise ValueError(
                    f"{self.name}: expected labels {self.labels}, "
                    f"got values {key}")


def with_telemetry(families: Iterable[Family],
                   snapshot: Mapping[str, Any]) -> List[Family]:
    """``families`` plus a ``telemetry.snapshot()`` bridged in.

    Every collector counter ``a.b.c`` becomes the counter family
    ``repro_a_b_c_total`` and every stat a ``repro_a_b_c`` summary, so
    the executor, runner, pipeline, fast-forward and chaos probes
    surface without any of those layers knowing ``/metrics`` exists.

    Collision rule: a bridged family whose name is taken by a family of
    a different kind or label set is skipped (e.g. the collector's
    ``campaign.retries`` vs the per-cell
    ``repro_campaign_retries_total{cell=...}``).  On a same-shape
    unlabelled collision a counter keeps the larger total and a summary
    takes the telemetry distribution.
    """
    by_name = {family.name: family for family in families}

    def bridge(family: Family) -> None:
        have = by_name.get(family.name)
        if have is None:
            by_name[family.name] = family
        elif have.kind == family.kind and not have.labels:
            value = family.samples[()]
            if family.kind == "counter":
                value = max(have.samples.get((), 0), value)
            by_name[family.name] = replace(have, samples={(): value})

    for name, value in snapshot.get("counters", {}).items():
        bridge(Family(sanitize_metric_name(f"repro_{name}_total"),
                      "counter", f"telemetry counter {name}",
                      samples={(): float(value)}))
    for name, payload in snapshot.get("stats", {}).items():
        stat = payload if isinstance(payload, Stat) else Stat.from_dict(
            payload)
        bridge(Family(sanitize_metric_name(f"repro_{name}"), "summary",
                      f"telemetry distribution {name}",
                      samples={(): stat}))
    return list(by_name.values())


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    pairs = [f'{name}="{escape_label_value(str(value))}"'
             for name, value in zip(names, values)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _render_family(family: Family) -> List[str]:
    lines = []
    if family.help:
        lines.append(f"# HELP {family.name} {escape_help(family.help)}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for key in sorted(family.samples):
        value = family.samples[key]
        labels = _labels_text(family.labels, key)
        if isinstance(value, Stat):
            lines.append(f"{family.name}_count{labels} {value.count}")
            lines.append(f"{family.name}_sum{labels} "
                         f"{_format_value(value.total)}")
            lines.append(f"{family.name}_min{labels} "
                         f"{_format_value(value.min if value.count else 0.0)}")
            lines.append(f"{family.name}_max{labels} "
                         f"{_format_value(value.max if value.count else 0.0)}")
        else:
            lines.append(f"{family.name}{labels} {_format_value(value)}")
    return lines


def render_prometheus(families: Iterable[Family]) -> str:
    """The families, sorted by name, as text exposition (trailing newline).

    A name may appear once: the format gives each family one TYPE.
    """
    families = sorted(families, key=lambda f: f.name)
    for first, second in zip(families, families[1:]):
        if first.name == second.name:
            raise ValueError(f"metric family {first.name!r} declared twice")
    lines: List[str] = []
    for family in families:
        lines.extend(_render_family(family))
    return "\n".join(lines) + "\n" if lines else ""
