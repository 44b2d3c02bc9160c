"""Live campaign control plane: /metrics, /status and /trajectory.

A stdlib-only HTTP layer (``http.server.ThreadingHTTPServer``) whose
endpoints are views of one :class:`~repro.observe.state.CampaignState`:

- ``/metrics`` — Prometheus text exposition of :func:`campaign_families`
  of a state snapshot, with the process's telemetry counters bridged in
  at scrape time (:func:`repro.telemetry.export.with_telemetry`);
- ``/status`` — :func:`status_document`, one JSON document of campaign
  progress: identity, current-cell progress, outcome tallies, running
  AVM with its Wilson CI, worker health, finished-cell summaries;
- ``/trajectory`` — the recorded CI-trajectory points as NDJSON
  (filterable with ``?cell=``).

Scrapes read a snapshot taken under the state's lock and never touch an
RNG stream, so a served campaign stays bit-identical to an unobserved
one.  Binding port 0 asks the kernel for an ephemeral port;
:meth:`ControlPlane.start` returns the bound port and ``/status``
surfaces it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import parse_qs, urlsplit

from repro import telemetry
from repro.observe.state import CampaignState, CellView, StateSnapshot
from repro.telemetry.export import Family, render_prometheus, with_telemetry

__all__ = ["ControlPlane", "campaign_families", "status_document"]

#: Bumped when the /status document shape changes.
#: v2: adaptive-sampling block (stop decisions, runs saved) added.
STATUS_VERSION = 3


def _cell_doc(cell: CellView, current: bool) -> Dict[str, Any]:
    if current:
        doc = {"cell": cell.cell, "runs_requested": cell.runs,
               "runs_done": cell.done, "resumed": cell.resumed,
               "outcomes": dict(cell.outcomes),
               "avm": cell.avm.to_dict(), "started_s": cell.started_s}
    else:
        doc = {"cell": cell.cell, "runs": cell.done,
               "outcomes": dict(cell.outcomes), "avm": cell.avm.to_dict(),
               "degraded": cell.degraded}
    if cell.stop is not None:
        doc["stop"] = dict(cell.stop)
    return doc


def status_document(snap: StateSnapshot,
                    port: Optional[int] = None) -> Dict[str, Any]:
    """The ``/status`` document of a state snapshot."""
    current, health = snap.current, snap.health
    return {
        "service": "repro-control-plane",
        "version": STATUS_VERSION,
        "campaign": dict(snap.campaign),
        "port": port,
        "uptime_s": snap.now - snap.started_s,
        "finished": snap.finished,
        "runs_done": snap.runs_done,
        "cells_done": snap.cells_done,
        "outcomes": dict(snap.outcomes),
        "avm": snap.avm.to_dict(),
        "current_cell": (_cell_doc(current, True)
                         if current is not None else None),
        "workers": ({"pool_size": health["pool_size"], "alive": snap.alive,
                     "retries": health["retries"],
                     "watchdog_kills": health["watchdog_kills"],
                     "harness_errors": health["harness_errors"],
                     "worker_restarts": health["worker_restarts"]}
                    if health is not None else {}),
        "adaptive": {"cells_stopped": sum(snap.stops_by_rule.values()),
                     "stops_by_rule": dict(snap.stops_by_rule),
                     "runs_saved": snap.runs_saved},
        "cells": [_cell_doc(cell, False) for cell in snap.cells
                  if cell.ended],
        "shards": dict(snap.shards) if snap.shards is not None else None,
    }


def campaign_families(snap: StateSnapshot) -> List[Family]:
    """The ``repro_campaign_*`` / ``repro_worker_*`` families of a snapshot.

    Per-cell families carry a ``cell`` label; a cell contributes a
    sample once it has one (the AVM after its first run, executor
    health after its first report).
    """

    def total(value) -> Dict[tuple, Any]:
        return {(): value} if value else {}

    def per_cell(value, when=lambda cell: True) -> Dict[tuple, Any]:
        return {(cell.cell,): value(cell) for cell in snap.cells
                if when(cell)}

    def health(key):
        return per_cell(lambda cell: cell.health[key],
                        lambda cell: cell.health is not None)

    def ran(cell):
        return cell.done

    return [
        Family("repro_campaign_runs_total", "counter",
               "Classified campaign runs (journal-resumed runs included)",
               samples=total(snap.runs_done)),
        Family("repro_campaign_outcome_total", "counter",
               "Classified campaign runs by outcome", ("outcome",),
               {(outcome,): n for outcome, n in snap.outcomes.items()}),
        Family("repro_campaign_avm", "gauge",
               "Running AVM (non-masked fraction) per campaign cell",
               ("cell",), per_cell(lambda cell: cell.avm.avm, ran)),
        Family("repro_campaign_avm_ci_halfwidth", "gauge",
               "Half-width of the 95% Wilson CI on the running AVM",
               ("cell",), per_cell(lambda cell: cell.avm.half_width, ran)),
        Family("repro_worker_alive", "gauge",
               "Campaign workers presumed alive (1 when running serially)",
               samples=({(): snap.alive} if snap.alive is not None
                        else {})),
        Family("repro_campaign_cells_total", "counter",
               "Campaign cells completed", samples=total(snap.cells_done)),
        Family("repro_campaign_cell_runs", "gauge",
               "Runs requested for the cell", ("cell",),
               per_cell(lambda cell: cell.runs)),
        Family("repro_campaign_cell_done", "gauge",
               "Runs classified so far in the cell", ("cell",),
               per_cell(lambda cell: cell.done)),
        Family("repro_campaign_retries_total", "counter",
               "Harness-error retries", ("cell",), health("retries")),
        Family("repro_campaign_watchdog_kills_total", "counter",
               "Runs stopped by a wall-clock watchdog", ("cell",),
               health("watchdog_kills")),
        Family("repro_worker_restarts_total", "counter",
               "Workers recycled, replaced or killed", ("cell",),
               health("worker_restarts")),
        Family("repro_campaign_run_wall_ms", "summary",
               "Wall-clock milliseconds per classified run",
               samples={(): snap.wall_ms} if snap.wall_ms.count else {}),
        Family("repro_campaign_stops_total", "counter",
               "Adaptive stop decisions by rule", ("rule",),
               {(rule,): n for rule, n in snap.stops_by_rule.items()}),
        Family("repro_campaign_runs_saved_total", "counter",
               "Budgeted runs adaptive sampling did not need to execute",
               samples=total(snap.runs_saved)),
    ]


class _Handler(BaseHTTPRequestHandler):
    """GET-only handler over the owning ControlPlane's observers."""

    plane: "ControlPlane"  # injected by ControlPlane._make_handler
    server_version = "repro-control-plane"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # pragma: no cover - quiet
        pass

    def _reply(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlsplit(self.path)
        route = parsed.path.rstrip("/") or "/"
        plane = self.plane
        try:
            if route == "/metrics":
                self._reply(200, plane.render_metrics(),
                            "text/plain; version=0.0.4; charset=utf-8")
            elif route == "/status":
                self._reply(200, json.dumps(plane.render_status(),
                                            indent=2) + "\n",
                            "application/json; charset=utf-8")
            elif route == "/trajectory":
                query = parse_qs(parsed.query)
                cell = query.get("cell", [None])[0]
                self._reply(200, plane.render_trajectory(cell),
                            "application/x-ndjson; charset=utf-8")
            elif route == "/":
                self._reply(200, "repro control plane: "
                            "/metrics /status /trajectory\n",
                            "text/plain; charset=utf-8")
            else:
                self._reply(404, "not found\n",
                            "text/plain; charset=utf-8")
        except (BrokenPipeError, ConnectionResetError):
            # Scraper went away mid-reply; nothing to clean up.
            pass


class ControlPlane:
    """The HTTP server over a campaign state and its trajectory points.

    ``port=0`` binds an ephemeral port; :meth:`start` returns whichever
    port was bound and ``/status`` reports it.  The server runs on a
    daemon thread (plus per-request handler threads) and only ever
    *reads* state snapshots — it cannot perturb a campaign.
    """

    def __init__(self, state: Optional[CampaignState] = None,
                 points: Optional[Sequence[Any]] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.state = state
        self.points = points if points is not None else []
        self.host = host
        self.requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- endpoint bodies ------------------------------------------------------
    def render_metrics(self) -> str:
        if self.state is None:
            return ""
        families = campaign_families(self.state.snapshot())
        if telemetry.enabled():
            families = with_telemetry(families, telemetry.snapshot())
        return render_prometheus(families)

    def render_status(self) -> Dict[str, Any]:
        if self.state is None:
            return {"service": "repro-control-plane",
                    "version": STATUS_VERSION, "port": self.port,
                    "campaign": {}, "finished": False}
        return status_document(self.state.snapshot(), self.port)

    def render_trajectory(self, cell: Optional[str] = None) -> str:
        lines = [json.dumps(p.to_dict(), separators=(",", ":"))
                 for p in list(self.points)
                 if cell is None or p.cell == cell]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- lifecycle ------------------------------------------------------------
    @property
    def port(self) -> Optional[int]:
        if self._server is None:
            return None
        return self._server.server_address[1]

    def start(self) -> int:
        """Bind, spin up the serving thread, return the bound port."""
        handler = type("_BoundHandler", (_Handler,), {"plane": self})
        self._server = ThreadingHTTPServer(
            (self.host, self.requested_port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-control-plane", daemon=True)
        self._thread.start()
        return self._server.server_address[1]

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(2.0)
            self._thread = None

    def __enter__(self) -> "ControlPlane":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
