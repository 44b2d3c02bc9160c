"""Golden views: every campaign view renders exactly what it rendered
before the views shared one campaign state.

The fixtures under ``fixtures/views/workers{0,2}`` were recorded from
the previous observer stack (a terminal monitor, a metrics adapter, a
status board and a trajectory recorder fanned out from the executor's
monitor slot) on this fixed campaign: tiny ``kmeans`` at seed 11, a
12-run fixed cell at VR15 (all Masked, so pool arrival order cannot
show) and an adaptive cell at VR20 (commits in run-index order), at 0
and 2 workers, under a fake clock that advances one second per event.
Only wall-clock fields are dropped before the byte comparison.
"""

import io
import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.campaign.adaptive import AdaptiveConfig
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.circuit.liberty import VR15, VR20
from repro.observe import CampaignMonitor, CampaignState, TrajectoryRecorder
from repro.observe.httpd import ControlPlane

FIXTURES = Path(__file__).parent / "fixtures" / "views"

#: Wall-clock fields: the only things the comparison drops.
WALL_KEYS = {"uptime_s", "started_s", "wall_s", "port"}
WALL_METRIC_PREFIX = "repro_campaign_run_wall_ms_"


class _TickClock:
    """Time advances one second per campaign event, never per read."""

    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


class _Ticking:
    """Monitor slot that ticks the clock, then forwards to the state."""

    def __init__(self, state, clock):
        self.state = state
        self.clock = clock

    def apply(self, event):
        self.clock.t += 1.0
        self.state.apply(event)

    def close(self):
        self.clock.t += 1.0
        self.state.close()


def _drop_wall(value):
    if isinstance(value, dict):
        return {k: _drop_wall(v) for k, v in value.items()
                if k not in WALL_KEYS}
    if isinstance(value, list):
        return [_drop_wall(v) for v in value]
    return value


def _json_doc(text):
    return json.dumps(_drop_wall(json.loads(text)), indent=2)


def _jsonl(text):
    return [json.dumps(_drop_wall(json.loads(line)), separators=(",", ":"))
            for line in text.splitlines() if line]


def _metrics(text):
    lines = []
    for line in text.splitlines():
        name = line.split("{")[0].split(" ")[0]
        if name.startswith(WALL_METRIC_PREFIX) and not name.endswith(
                "_count"):
            line = name
        lines.append(line)
    return lines


def _run_views(tmp_path, runner, model, workers):
    clock = _TickClock()
    stream = io.StringIO()
    trajectory = TrajectoryRecorder(path=tmp_path / "trajectory.jsonl")
    state = CampaignState(
        "kmeans", 11, cells_total=2,
        extra={"scale": "tiny", "runs_per_cell": 12, "workers": workers},
        views=[CampaignMonitor(stream=stream, use_ansi=False,
                               total_cells=2), trajectory],
        now=clock)
    plane = ControlPlane(state, trajectory.points)
    with CampaignExecutor(runner, ExecutorConfig(workers=workers),
                          monitor=_Ticking(state, clock)) as executor:
        executor.run_cell(model, VR15, runs=12)
        executor.run_cell(model, VR20, runs=24, adaptive=AdaptiveConfig(
            ci_target=0.28, min_runs=4, growth=1.5))
    return {
        "monitor.txt": stream.getvalue(),
        "status.json": json.dumps(plane.render_status(), indent=2) + "\n",
        "metrics.txt": plane.render_metrics(),
        "trajectory.jsonl": (tmp_path / "trajectory.jsonl").read_text(),
    }


@pytest.mark.parametrize("workers", [0, 2])
def test_views_match_recorded_fixtures(tmp_path, tiny_runners, wa_models,
                                       workers):
    telemetry.disable()
    views = _run_views(tmp_path, tiny_runners["kmeans"],
                       wa_models["kmeans"], workers)
    golden = FIXTURES / f"workers{workers}"
    assert views["monitor.txt"] == (golden / "monitor.txt").read_text()
    assert _json_doc(views["status.json"]) == _json_doc(
        (golden / "status.json").read_text())
    assert _metrics(views["metrics.txt"]) == _metrics(
        (golden / "metrics.txt").read_text())
    assert _jsonl(views["trajectory.jsonl"]) == _jsonl(
        (golden / "trajectory.jsonl").read_text())
