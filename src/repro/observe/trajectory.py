"""CI trajectory: how fast each cell's AVM estimate converges.

The paper sizes every campaign cell at 1068 runs for a ±3 % Wilson
margin; adaptive sampling wants to stop earlier when a cell converges
sooner.  :class:`TrajectoryRecorder` is the campaign-state view that
records the data that decision needs: after each classified run a
``(cell, runs_done, avm, ci_lo, ci_hi, wall_s)`` point, building the
confidence-interval trajectory of every cell.

Points are framed JSONL records (``type: "trajectory"``), either on
their own stream file or interleaved into an existing telemetry trace
via any sink with an ``emit`` method.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.observe.state import (
    CellEnded,
    RunClassified,
    StateSnapshot,
    StopDecided,
)

__all__ = [
    "POINT_TYPE",
    "TrajectoryPoint",
    "TrajectoryRecorder",
    "load_trajectory",
    "points_by_cell",
]

#: Framed-record discriminator for trajectory points.
POINT_TYPE = "trajectory"


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sample of a cell's running AVM estimate.

    ``runs_done`` counts classified runs including journal-resumed ones;
    ``wall_s`` is seconds since the cell began (wall-clock only — it
    never feeds back into the campaign).
    """

    cell: str
    runs_done: int
    avm: float
    ci_lo: float
    ci_hi: float
    wall_s: float
    #: Stop-decision provenance, set only on the point emitted at an
    #: adaptive cell's stop (``stop_rule`` is ``"ci-target"`` or
    #: ``"budget"``, ``stop_target`` the configured half-width).  Both
    #: stay out of ``to_dict`` when unset, so non-adaptive streams are
    #: byte-identical to what earlier recorders wrote.
    stop_rule: Optional[str] = None
    stop_target: Optional[float] = None

    @property
    def half_width(self) -> float:
        return (self.ci_hi - self.ci_lo) / 2.0

    def to_dict(self) -> Dict[str, Any]:
        payload = {"type": POINT_TYPE, "cell": self.cell,
                   "runs_done": self.runs_done, "avm": self.avm,
                   "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
                   "wall_s": self.wall_s}
        if self.stop_rule is not None:
            payload["stop_rule"] = self.stop_rule
        if self.stop_target is not None:
            payload["stop_target"] = self.stop_target
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrajectoryPoint":
        target = data.get("stop_target")
        return cls(cell=str(data.get("cell", "?")),
                   runs_done=int(data.get("runs_done", 0)),
                   avm=float(data.get("avm", 0.0)),
                   ci_lo=float(data.get("ci_lo", 0.0)),
                   ci_hi=float(data.get("ci_hi", 0.0)),
                   wall_s=float(data.get("wall_s", 0.0)),
                   stop_rule=(str(data["stop_rule"])
                              if data.get("stop_rule") is not None
                              else None),
                   stop_target=(float(target)
                                if target is not None else None))


class TrajectoryRecorder:
    """Campaign-state view that streams CI-trajectory points.

    One point per classified run, one at an adaptive cell's stop
    decision and one from the authoritative counts at the cell's end.
    ``path`` opens a dedicated JSONL stream (first line is a ``meta``
    header); ``sink`` reuses an existing emitting sink (e.g. the
    telemetry :class:`~repro.telemetry.sinks.JsonlSink`) instead.
    Points are also kept in memory for the ``/trajectory`` endpoint and
    the HTML report.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 sink: Optional[Any] = None):
        self.points: List[TrajectoryPoint] = []
        self._sink = sink
        self._fh = None
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._write({"type": "meta", "trace": "repro-trajectory",
                         "version": 1})

    # -- state view -----------------------------------------------------------
    def update(self, event: Any, snap: StateSnapshot) -> None:
        if isinstance(event, StopDecided):
            # The interval recorded is the decision's own (anytime-valid,
            # look-corrected) interval, not the plain running Wilson CI
            # of ordinary points.
            decision, cell = event.decision, snap.cells[-1]
            self._append(TrajectoryPoint(
                cell=cell.cell, runs_done=int(decision.n),
                avm=float(decision.avm), ci_lo=float(decision.ci_lo),
                ci_hi=float(decision.ci_hi),
                wall_s=snap.now - cell.started_s,
                stop_rule=str(decision.rule),
                stop_target=float(decision.target)))
        elif (isinstance(event, (RunClassified, CellEnded))
              and snap.cells[-1].done):
            cell = snap.cells[-1]
            est = cell.avm
            self._append(TrajectoryPoint(
                cell=cell.cell, runs_done=cell.done, avm=est.avm,
                ci_lo=est.ci_lo, ci_hi=est.ci_hi,
                wall_s=snap.now - cell.started_s))

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    # -- emission -------------------------------------------------------------
    def _append(self, point: TrajectoryPoint) -> None:
        self.points.append(point)
        payload = point.to_dict()
        if self._fh is not None and not self._fh.closed:
            self._write(payload)
        if self._sink is not None:
            self._sink.emit(payload)

    def _write(self, payload: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._fh.flush()


def points_by_cell(points: List[TrajectoryPoint]
                   ) -> Dict[str, List[TrajectoryPoint]]:
    """Group trajectory points by cell, preserving order."""
    grouped: Dict[str, List[TrajectoryPoint]] = {}
    for point in points:
        grouped.setdefault(point.cell, []).append(point)
    return grouped


def load_trajectory(path: Union[str, Path]) -> List[TrajectoryPoint]:
    """Read trajectory points from a JSONL stream (torn-tail tolerant).

    Accepts both dedicated trajectory streams and telemetry traces with
    interleaved ``trajectory`` records.
    """
    from repro.telemetry.sinks import read_trace
    return [TrajectoryPoint.from_dict(event)
            for event in read_trace(path)
            if event.get("type") == POINT_TYPE]
