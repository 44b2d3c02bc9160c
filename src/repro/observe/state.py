"""One campaign state, many views.

A campaign is observed as a small typed event stream:

- :class:`CellBegun` — a cell starts, with the outcome tally of the runs
  it resumed from the journal;
- :class:`RunClassified` — one run committed, with the cell's live
  executor stats;
- :class:`StopDecided` — an adaptive cell's stop decision;
- :class:`CellEnded` — the cell's authoritative result;
- :class:`ShardStatus` — a sharded campaign's queue state.

The executor feeds the stream live through its single ``monitor`` slot;
:func:`journal_events` replays the same stream from a journal.  A
:class:`CampaignState` reduces it under one lock, and every view renders
a :class:`StateSnapshot` taken under that lock: the terminal monitor,
``/status``, ``/metrics`` and the CI-trajectory stream.  No view keeps a
tally of its own, so live and replayed views cannot disagree.

The state is a pure observer: it never touches an RNG stream, so an
observed campaign stays bit-identical to an unobserved one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.observe.stats import AvmEstimate, avm_estimate, non_masked_count
from repro.telemetry.core import Stat

__all__ = [
    "CampaignState",
    "CellBegun",
    "CellEnded",
    "CellView",
    "RunClassified",
    "ShardStatus",
    "StateSnapshot",
    "StopDecided",
    "journal_events",
]


# -- events -------------------------------------------------------------------
@dataclass(frozen=True)
class CellBegun:
    """A cell starts; ``resumed`` tallies the outcomes it resumed."""

    workload: str
    model: str
    point: str
    runs: int
    resumed: Mapping[str, int] = field(default_factory=dict)

    @property
    def cell(self) -> str:
        return f"{self.workload}/{self.model}/{self.point}"


@dataclass(frozen=True)
class RunClassified:
    """One committed run (a ``RunRecord``) and the cell's ``CellStats``."""

    record: Any
    stats: Optional[Any] = None


@dataclass(frozen=True)
class StopDecided:
    """An adaptive cell's ``StopDecision``."""

    decision: Any


@dataclass(frozen=True)
class CellEnded:
    """A cell's authoritative ``CampaignResult``."""

    result: Any


@dataclass(frozen=True)
class ShardStatus:
    """A ``ShardCoordinator.status()`` poll."""

    status: Mapping[str, Any]


# -- snapshot -----------------------------------------------------------------
def _health(stats: Any) -> Dict[str, int]:
    return {"pool_size": stats.workers, "retries": stats.retries,
            "watchdog_kills": stats.watchdog_kills,
            "harness_errors": stats.harness_errors,
            "worker_restarts": stats.worker_restarts}


@dataclass
class CellView:
    """One begun cell: progress, outcome tally and executor health.

    ``done`` and ``outcomes`` count resumed runs too; at the cell's end
    both are pinned to the result's counts.  ``health`` is the latest
    executor report (None until the first one arrives).
    """

    cell: str
    runs: int
    resumed: int
    started_s: float
    done: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    health: Optional[Dict[str, int]] = None
    stop: Optional[Dict[str, Any]] = None
    ended: bool = False
    degraded: bool = False

    @property
    def avm(self) -> AvmEstimate:
        return avm_estimate(non_masked_count(self.outcomes), self.done)


@dataclass(frozen=True)
class StateSnapshot:
    """A consistent copy of the campaign state, taken at ``now``."""

    now: float
    started_s: float
    campaign: Dict[str, Any]
    finished: bool
    runs_done: int
    outcomes: Dict[str, int]
    cells: List[CellView]
    alive: Optional[int]
    wall_ms: Stat
    stops_by_rule: Dict[str, int]
    runs_saved: int
    shards: Optional[Dict[str, Any]]

    @property
    def current(self) -> Optional[CellView]:
        """The running cell, or None between cells."""
        if self.cells and not self.cells[-1].ended:
            return self.cells[-1]
        return None

    @property
    def cells_done(self) -> int:
        return sum(1 for cell in self.cells if cell.ended)

    @property
    def avm(self) -> AvmEstimate:
        return avm_estimate(non_masked_count(self.outcomes), self.runs_done)

    @property
    def health(self) -> Optional[Dict[str, int]]:
        """The most recent executor health report of any cell."""
        for cell in reversed(self.cells):
            if cell.health is not None:
                return cell.health
        return None


# -- the reducer --------------------------------------------------------------
class CampaignState:
    """The single source of truth behind every campaign view.

    ``apply`` reduces one event under the lock and then hands ``views``
    (objects with ``update(event, snapshot)`` and ``close()``) a fresh
    snapshot; pull views such as the HTTP control plane call
    :meth:`snapshot` themselves.  The state is also the executor's
    monitor: it implements ``apply`` and ``close``.
    """

    def __init__(self, benchmark: str = "", seed: int = 0,
                 cells_total: Optional[int] = None,
                 extra: Optional[Mapping[str, Any]] = None,
                 views: Any = (), now=time.monotonic):
        self._lock = threading.Lock()
        self._now = now
        self.views = list(views)
        self._campaign: Dict[str, Any] = {
            "benchmark": benchmark, "seed": seed, "cells_total": cells_total,
            **(extra or {})}
        self._started = now()
        self._finished = False
        self._shards: Optional[Dict[str, Any]] = None
        self._clear()

    def _clear(self) -> None:
        self._runs_done = 0
        self._outcomes: Dict[str, int] = {}
        # Only the newest cell is ever mutated, so a snapshot copies
        # just that one and shares the finished ones.
        self._cells: List[CellView] = []
        self._alive: Optional[int] = None
        self._wall_ms = Stat()
        self._stops: Dict[str, int] = {}
        self._runs_saved = 0

    def apply(self, event: Any) -> None:
        with self._lock:
            self._reduce(event)
            snap = self._snapshot() if self.views else None
        for view in self.views:
            view.update(event, snap)

    def reload(self, journal_path: Union[str, Path]) -> None:
        """Re-reduce the run tallies from a journal alone, telling no view:
        a store-backed campaign ends on its merged journal, whose cells may
        have run elsewhere, and no run seen live here counts twice."""
        events = list(journal_events(journal_path))
        with self._lock:
            self._clear()
            for event in events:
                self._reduce(event)

    def close(self) -> None:
        with self._lock:
            self._finished = True
            self._alive = 0
        for view in self.views:
            view.close()

    def snapshot(self) -> StateSnapshot:
        with self._lock:
            return self._snapshot()

    def _tally(self, outcomes: Mapping[str, int]) -> None:
        for outcome, n in outcomes.items():
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + n
            self._runs_done += n

    def _reduce(self, event: Any) -> None:
        if isinstance(event, RunClassified):
            record, cell = event.record, self._cells[-1]
            self._tally({record.outcome: 1})
            cell.done += 1
            cell.outcomes[record.outcome] = (
                cell.outcomes.get(record.outcome, 0) + 1)
            self._wall_ms.add(float(record.wall_ms))
            if event.stats is not None:
                cell.health = _health(event.stats)
                self._alive = max(event.stats.workers, 1)
        elif isinstance(event, CellBegun):
            resumed = dict(event.resumed)
            self._tally(resumed)
            self._cells.append(CellView(
                cell=event.cell, runs=event.runs,
                resumed=sum(resumed.values()), started_s=self._now(),
                done=sum(resumed.values()), outcomes=resumed))
            self._alive = 1
        elif isinstance(event, StopDecided):
            decision = event.decision
            rule = str(decision.rule)
            self._stops[rule] = self._stops.get(rule, 0) + 1
            self._runs_saved += int(decision.runs_saved)
            self._cells[-1].stop = decision.to_dict()
        elif isinstance(event, CellEnded):
            result, cell = event.result, self._cells[-1]
            cell.outcomes = {o.value: n
                             for o, n in result.counts.counts.items()}
            cell.done = result.counts.total
            if result.stats is not None:
                cell.health = _health(result.stats)
                cell.degraded = bool(result.stats.degraded)
            cell.ended = True
        elif isinstance(event, ShardStatus):
            self._shards = dict(event.status)

    def _snapshot(self) -> StateSnapshot:
        # Health dicts and stop payloads are replaced, never mutated.
        cells = list(self._cells)
        if cells:
            cells[-1] = replace(cells[-1], outcomes=dict(cells[-1].outcomes))
        wall = self._wall_ms
        return StateSnapshot(
            now=self._now(), started_s=self._started,
            campaign=dict(self._campaign), finished=self._finished,
            runs_done=self._runs_done, outcomes=dict(self._outcomes),
            cells=cells, alive=self._alive,
            wall_ms=Stat(wall.count, wall.total, wall.min, wall.max),
            stops_by_rule=dict(self._stops), runs_saved=self._runs_saved,
            shards=dict(self._shards) if self._shards is not None else None)

    @classmethod
    def replay(cls, journal_path: Union[str, Path], benchmark: str = "",
               seed: Optional[int] = None) -> "CampaignState":
        """The closed state of a finished campaign, from its journal.

        ``benchmark`` defaults to the journal's workloads and ``seed``
        to the journal's root seed.
        """
        events = list(journal_events(journal_path))
        results = [e.result for e in events if isinstance(e, CellEnded)]
        if seed is None and results:
            seed = results[0].seed
        if not benchmark:
            benchmark = ",".join(sorted({r.workload for r in results}))
        state = cls(benchmark, seed or 0, cells_total=len(results))
        for event in events:
            state.apply(event)
        state.close()
        return state


# -- journal replay -----------------------------------------------------------
def journal_events(journal_path: Union[str, Path]) -> Iterator[Any]:
    """Replay a journal as the event stream of the campaign that wrote it.

    Reads through :func:`~repro.campaign.journal.read_journal`, so torn
    and CRC-failing lines are quarantined exactly as resume quarantines
    them, and running or killed campaigns replay too.  Per cell, in
    order of first appearance: the begin, one run per distinct run index
    (the last line wins), the stop decision, and the end, whose result
    is rebuilt from the run lines (``cell`` lines add the error ratio
    and the degraded flag).
    """
    from repro.campaign.adaptive import StopDecision
    from repro.campaign.executor import CellStats
    from repro.campaign.journal import RunRecord, read_journal
    from repro.campaign.outcomes import Outcome, OutcomeCounts
    from repro.campaign.runner import CampaignResult

    contents = read_journal(journal_path)
    seed = int(contents.seed or 0)
    cells: Dict[tuple, Dict[int, dict]] = {}
    for (workload, model, point, index), event in contents.runs.items():
        cells.setdefault((workload, model, point), {})[index] = event

    outcomes = {o.value for o in Outcome}
    for (workload, model, point), runs in cells.items():
        lines = {index: event for index, event in runs.items()
                 if str(event.get("outcome")) in outcomes}
        counts = OutcomeCounts()
        for event in lines.values():
            counts.record(Outcome(event["outcome"]))
        summary = contents.cells.get((workload, model, point), {})
        stop = contents.stops.get((workload, model, point))
        yield CellBegun(workload, model, point,
                        runs=int(stop["budget"]) if stop
                        else int(summary.get("runs", counts.total)))
        for event in lines.values():
            yield RunClassified(RunRecord.from_payload(event))
        if stop is not None:
            yield StopDecided(StopDecision.from_dict(stop))
        stats = CellStats(
            runs=int(summary.get("runs", counts.total)),
            executed=counts.total,
            watchdog_kills=sum(1 for e in lines.values() if e.get("watchdog")),
            retries=sum(int(e.get("retries", 0)) for e in lines.values()),
            harness_errors=(len(contents.harness_errors)
                            if len(cells) == 1 else 0),
            degraded=bool(summary.get("degraded", False)),
            wall_time=sum(float(e.get("wall_ms", 0.0))
                          for e in lines.values()) / 1000.0,
        )
        yield CellEnded(CampaignResult(
            workload=workload, model=model, point=point, counts=counts,
            error_ratio=float(summary.get("error_ratio", 0.0)),
            uarch_masked=sum(int(e.get("uarch_masked", 0))
                             for e in lines.values()),
            runs_without_injection=sum(1 for e in lines.values()
                                       if not e.get("injected", True)),
            seed=seed, stats=stats,
        ))
