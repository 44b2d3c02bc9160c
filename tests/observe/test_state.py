"""Tests for the campaign state: one tally behind every view.

Two properties that views keeping their own tallies would break:

- a cell that resumes journaled runs reports the same running AVM and
  run count in every view from its first new run on;
- a journal replay (``repro serve --journal``) rebuilds the same
  ``/status`` and campaign ``/metrics`` a live campaign served, except
  for the fields the journal does not record (DESIGN.md §13).
"""

import io
import json

from repro.campaign.adaptive import AdaptiveConfig
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.journal import RunJournal, RunRecord
from repro.circuit.liberty import VR15, VR20
from repro.observe import CampaignMonitor, CampaignState, TrajectoryRecorder
from repro.observe.httpd import campaign_families, status_document
from repro.observe.state import RunClassified
from repro.telemetry.export import render_prometheus

#: /status fields a journal replay cannot rebuild (DESIGN.md §13).
UNRECORDED_STATUS = [("uptime_s",), ("port",), ("current_cell", "started_s"),
                     ("campaign", "scale"), ("campaign", "runs_per_cell"),
                     ("campaign", "workers"), ("workers", "pool_size"),
                     ("workers", "harness_errors"),
                     ("workers", "worker_restarts")]
#: /metrics families a journal replay cannot rebuild (DESIGN.md §13).
UNRECORDED_FAMILIES = {"repro_worker_restarts_total"}


class _Capture:
    """View that renders /status and /metrics at every classified run."""

    def __init__(self):
        self.status = []
        self.metrics = []

    def update(self, event, snap):
        if isinstance(event, RunClassified):
            self.status.append(status_document(snap))
            self.metrics.append(
                {f.name: f.samples for f in campaign_families(snap)})

    def close(self):
        pass


def _first_sdc_index(runner, model, point, runs):
    indices = []

    class _Find:
        def apply(self, event):
            if (isinstance(event, RunClassified)
                    and event.record.outcome == "SDC"):
                indices.append(event.record.run_index)

        def close(self):
            pass

    with CampaignExecutor(runner, monitor=_Find()) as executor:
        executor.run_cell(model, point, runs=runs)
    return min(indices)


class TestResumedCell:
    def test_resumed_sdc_runs_count_in_every_view(self, tmp_path,
                                                  tiny_runners, wa_models):
        """6 resumed SDC runs + 1 new SDC run is AVM 1.0 everywhere."""
        runner, model = tiny_runners["kmeans"], wa_models["kmeans"]
        new = _first_sdc_index(runner, model, VR20, runs=7)
        journal = tmp_path / "j.jsonl"
        with RunJournal.open(journal, seed=runner.seed) as j:
            for index in sorted(set(range(7)) - {new}):
                j.record_run(RunRecord(
                    workload="kmeans", model=model.name, point="VR20",
                    run_index=index, outcome="SDC"))

        stream = io.StringIO()
        capture = _Capture()
        trajectory = TrajectoryRecorder()
        state = CampaignState(views=[
            CampaignMonitor(stream=stream, use_ansi=False, log_interval=0),
            trajectory, capture])
        config = ExecutorConfig(journal_path=str(journal), resume=True)
        with CampaignExecutor(runner, config, monitor=state) as executor:
            result = executor.run_cell(model, VR20, runs=7)
        assert result.stats.resumed == 6 and result.stats.executed == 1

        # The views as they stood right after the one new run.
        [status], [metrics] = capture.status, capture.metrics
        cell = f"kmeans/{model.name}/VR20"
        assert status["avm"]["avm"] == 1.0
        assert status["current_cell"]["avm"]["avm"] == 1.0
        assert status["runs_done"] == 7
        assert metrics["repro_campaign_runs_total"] == {(): 7}
        assert sum(metrics["repro_campaign_outcome_total"].values()) == 7
        assert metrics["repro_campaign_avm"] == {(cell,): 1.0}
        assert trajectory.points[0].runs_done == 7
        assert trajectory.points[0].avm == 1.0
        run_line = stream.getvalue().splitlines()[1]
        assert "7/7" in run_line and "AVM 100.0%" in run_line


def _without(doc, paths):
    doc = json.loads(json.dumps(doc))
    for path in paths:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) or {}
        parent.pop(path[-1], None)
    return doc


class TestLiveEqualsReplay:
    def _campaign(self, tmp_path, runner, model, workers):
        journal = tmp_path / f"w{workers}.jsonl"
        state = CampaignState("kmeans", runner.seed, cells_total=2,
                              extra={"scale": "tiny", "runs_per_cell": 12,
                                     "workers": workers})
        config = ExecutorConfig(workers=workers, journal_path=str(journal))
        with CampaignExecutor(runner, config, monitor=state) as executor:
            executor.run_cell(model, VR15, runs=12)
            executor.run_cell(model, VR20, runs=24, adaptive=AdaptiveConfig(
                ci_target=0.28, min_runs=4, growth=1.5))
        return state, journal

    def test_replayed_status_and_metrics_equal_live(self, tmp_path,
                                                    tiny_runners,
                                                    wa_models):
        runner, model = tiny_runners["kmeans"], wa_models["kmeans"]
        for workers in (0, 2):
            live, journal = self._campaign(tmp_path, runner, model, workers)
            served = CampaignState.replay(journal, benchmark="kmeans")
            live_snap, served_snap = live.snapshot(), served.snapshot()

            def status(snap):
                return json.dumps(_without(status_document(snap),
                                           UNRECORDED_STATUS), indent=2)

            def metrics(snap):
                return render_prometheus(
                    f for f in campaign_families(snap)
                    if f.name not in UNRECORDED_FAMILIES)

            assert status(served_snap) == status(live_snap)
            assert metrics(served_snap) == metrics(live_snap)
            assert live_snap.stops_by_rule == {"ci-target": 1}
