"""Live campaign monitor: a stdlib-only terminal view of the campaign state.

For the newest cell it shows progress (resumed runs counted as done),
outcome tallies and the AVM-so-far with its 95 % Wilson CI half-width —
so the paper's 1068-run / 3 % margin criterion can be watched converging
live — worker health, and an ETA from the cell's run rate.

On a TTY the block refreshes in place (ANSI cursor movement, throttled
to ``interval`` seconds); on anything else it degrades to plain log
lines every ``log_interval`` seconds.  Time is the snapshot's, so the
view has no clock of its own.
"""

from __future__ import annotations

import sys
from typing import Any, Optional, TextIO

from repro.observe.state import (
    CellBegun,
    CellEnded,
    RunClassified,
    StateSnapshot,
    StopDecided,
)
from repro.observe.stats import OUTCOME_ORDER

__all__ = ["CampaignMonitor"]


class CampaignMonitor:
    """Terminal status view of the newest campaign cell."""

    def __init__(self, stream: Optional[TextIO] = None,
                 interval: float = 0.25, log_interval: float = 5.0,
                 total_cells: Optional[int] = None,
                 use_ansi: Optional[bool] = None):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.log_interval = log_interval
        self.total_cells = total_cells
        if use_ansi is None:
            use_ansi = bool(getattr(self.stream, "isatty", lambda: False)())
        self.use_ansi = use_ansi
        self._last_draw = float("-inf")
        self._drawn_lines = 0

    # -- state view -----------------------------------------------------------
    def update(self, event: Any, snap: StateSnapshot) -> None:
        if isinstance(event, RunClassified):
            self._draw(snap)
        elif isinstance(event, CellBegun):
            self._draw(snap, force=True)
        elif isinstance(event, StopDecided):
            self._stop_line(event.decision)
            self._draw(snap, force=True)
        elif isinstance(event, CellEnded):
            self._draw(snap, force=True, final=True)

    def close(self) -> None:
        if self.use_ansi and self._drawn_lines:
            self.stream.write("\n")
            self.stream.flush()
            self._drawn_lines = 0

    # -- rendering ------------------------------------------------------------
    def render(self, snap: StateSnapshot) -> str:
        """The status block (three lines) of the snapshot's newest cell."""
        cell = snap.cells[-1]
        return "\n".join([self._progress_line(snap), _avm_line(cell),
                          _health_line(cell.health)])

    def _progress_line(self, snap: StateSnapshot) -> str:
        cell = snap.cells[-1]
        runs = cell.runs
        done = min(cell.done, runs) if runs else cell.done
        frac = done / runs if runs else 0.0
        width = 20
        filled = int(round(width * frac))
        bar = "#" * filled + "." * (width - filled)
        elapsed = max(snap.now - cell.started_s, 1e-9)
        rate = (cell.done - cell.resumed) / elapsed
        if rate > 0 and runs:
            remaining = max(runs - cell.done, 0)
            eta = f"ETA {remaining / rate:5.0f}s"
        else:
            eta = "ETA --"
        cells = (f"  cell {len(snap.cells)}"
                 + (f"/{self.total_cells}" if self.total_cells else ""))
        return (f"campaign {cell.cell}  [{bar}]  {done}/{runs} "
                f"({frac:5.1%})  {rate:6.1f} runs/s  {eta}{cells}")

    def _stop_line(self, decision: Any) -> None:
        line = (f"  stop: {decision.rule} at n={decision.n} "
                f"(budget {decision.budget})  AVM in "
                f"[{decision.ci_lo:.3f}, {decision.ci_hi:.3f}] "
                f"target ±{decision.target:.3f}")
        if self.use_ansi and self._drawn_lines:
            self.stream.write(f"\x1b[{self._drawn_lines}F")
            self.stream.write("\x1b[0J")
            self._drawn_lines = 0
        self.stream.write(line + "\n")
        self.stream.flush()

    def _draw(self, snap: StateSnapshot, force: bool = False,
              final: bool = False) -> None:
        min_gap = self.interval if self.use_ansi else self.log_interval
        if not force and snap.now - self._last_draw < min_gap:
            return
        self._last_draw = snap.now
        block = self.render(snap)
        if self.use_ansi:
            if self._drawn_lines:
                # Move back to the top of the previous block and clear
                # each stale line before rewriting in place.
                self.stream.write(f"\x1b[{self._drawn_lines}F")
            self.stream.write(
                "\n".join("\x1b[2K" + line for line in block.splitlines())
            )
            self.stream.write("\n")
            self._drawn_lines = len(block.splitlines())
            if final:
                self._drawn_lines = 0
        else:
            prefix = "[done] " if final else ""
            self.stream.write(prefix + block.replace("\n", " | ") + "\n")
        self.stream.flush()


def _avm_line(cell) -> str:
    tallies = cell.outcomes
    parts = "  ".join(f"{name} {tallies.get(name, 0)}"
                      for name in OUTCOME_ORDER)
    extras = sum(n for name, n in tallies.items()
                 if name not in OUTCOME_ORDER)
    if extras:
        parts += f"  other {extras}"
    if not cell.done:
        return f"  outcomes: {parts}   AVM --"
    est = cell.avm
    return (f"  outcomes: {parts}   "
            f"AVM {est.avm:6.1%} ±{est.half_width:5.1%} (95% CI)")


def _health_line(health) -> str:
    if health is None:
        return "  executor: serial, no events"
    workers = health["pool_size"]
    mode = f"{workers} workers" if workers else "serial"
    return (f"  executor: {mode}  retries {health['retries']}  "
            f"watchdog {health['watchdog_kills']}  "
            f"harness-err {health['harness_errors']}  "
            f"restarts {health['worker_restarts']}")
