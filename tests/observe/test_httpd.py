"""Tests for the HTTP control plane: campaign families, status, endpoints."""

import json
import urllib.error
import urllib.request

import pytest

from repro.campaign.executor import CellStats
from repro.campaign.journal import RunJournal, RunRecord
from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.runner import CampaignResult
from repro.observe.httpd import (
    STATUS_VERSION,
    ControlPlane,
    campaign_families,
    status_document,
)
from repro.observe.state import (
    CampaignState,
    CellBegun,
    CellEnded,
    RunClassified,
    ShardStatus,
)
from repro.observe.trajectory import TrajectoryRecorder


def _record(outcome="Masked", run_index=0, wall_ms=2.0, point="VR15"):
    return RunRecord(workload="w", model="WA", point=point,
                     run_index=run_index, outcome=outcome,
                     wall_ms=wall_ms)


def _stats(**kwargs):
    defaults = dict(runs=4, executed=4, workers=2)
    defaults.update(kwargs)
    return CellStats(**defaults)


def _result(counts=None, point="VR15"):
    oc = OutcomeCounts()
    for outcome, n in (counts or {"Masked": 3, "SDC": 1}).items():
        for _ in range(n):
            oc.record(Outcome(outcome))
    return CampaignResult(workload="w", model="WA", point=point,
                          counts=oc, error_ratio=0.1, seed=7,
                          stats=_stats(runs=oc.total, executed=oc.total))


def _drive_cell(state, outcomes, runs=None):
    runs = runs if runs is not None else len(outcomes)
    state.apply(CellBegun("w", "WA", "VR15", runs=runs))
    for i, outcome in enumerate(outcomes):
        state.apply(RunClassified(_record(outcome, i), _stats(runs=runs)))


def _families(state):
    """name -> {label values: sample} of the state's /metrics families."""
    return {f.name: f.samples for f in campaign_families(state.snapshot())}


def _write_journal(path, results):
    """A journal holding ``results``' runs and cell summaries."""
    with RunJournal.open(path, seed=7) as journal:
        for result in results:
            index = 0
            for outcome, n in result.counts.counts.items():
                for _ in range(n):
                    journal.record_run(_record(outcome.value, index,
                                               point=result.point))
                    index += 1
            journal.record_cell(result)
    return path


class TestCampaignMetrics:
    def test_run_and_outcome_counters(self):
        state = CampaignState()
        _drive_cell(state, ["Masked", "SDC", "Masked"])
        fams = _families(state)
        assert fams["repro_campaign_runs_total"] == {(): 3}
        outcomes = fams["repro_campaign_outcome_total"]
        assert outcomes[("Masked",)] == 2
        assert outcomes[("SDC",)] == 1

    def test_avm_gauges_track_running_estimate(self):
        state = CampaignState()
        _drive_cell(state, ["Masked", "SDC", "Masked", "Masked"])
        fams = _families(state)
        assert fams["repro_campaign_avm"][("w/WA/VR15",)] == 0.25
        assert fams["repro_campaign_avm_ci_halfwidth"][("w/WA/VR15",)] > 0

    def test_resumed_runs_counted_once(self):
        state = CampaignState()
        state.apply(CellBegun("w", "WA", "VR15", runs=10,
                              resumed={"Masked": 6}))
        state.apply(RunClassified(_record("Masked"), _stats()))
        fams = _families(state)
        assert fams["repro_campaign_runs_total"] == {(): 7}
        assert fams["repro_campaign_outcome_total"] == {("Masked",): 7}

    def test_stats_totals_pinned_not_double_counted(self):
        state = CampaignState()
        state.apply(CellBegun("w", "WA", "VR15", runs=2))
        stats = _stats(retries=3, watchdog_kills=1, worker_restarts=2)
        state.apply(RunClassified(_record("Masked", 0), stats))
        state.apply(RunClassified(_record("Masked", 1), stats))  # again
        fams = _families(state)
        assert fams["repro_campaign_retries_total"] == {("w/WA/VR15",): 3}
        assert fams["repro_campaign_watchdog_kills_total"] == {
            ("w/WA/VR15",): 1}
        assert fams["repro_worker_restarts_total"] == {("w/WA/VR15",): 2}

    def test_worker_alive_lifecycle(self):
        state = CampaignState()
        _drive_cell(state, ["Masked"])
        assert _families(state)["repro_worker_alive"] == {(): 2}
        state.close()
        assert _families(state)["repro_worker_alive"] == {(): 0}

    def test_end_cell_pins_final_avm_and_counts_cells(self):
        state = CampaignState()
        _drive_cell(state, ["Masked", "SDC"])
        state.apply(CellEnded(_result({"Masked": 3, "SDC": 1})))
        fams = _families(state)
        assert fams["repro_campaign_avm"][("w/WA/VR15",)] == 0.25
        assert fams["repro_campaign_cell_done"][("w/WA/VR15",)] == 4
        assert fams["repro_campaign_cells_total"] == {(): 1}


STATUS_KEYS = {"service", "version", "campaign", "port", "uptime_s",
               "finished", "runs_done", "cells_done", "outcomes", "avm",
               "current_cell", "workers", "adaptive", "cells", "shards"}


class TestStatusBoard:
    def test_snapshot_schema(self):
        state = CampaignState("kmeans", 2021, cells_total=2,
                              extra={"scale": "tiny"})
        _drive_cell(state, ["Masked", "SDC"])
        doc = status_document(state.snapshot())
        assert set(doc) == STATUS_KEYS
        assert doc["service"] == "repro-control-plane"
        assert doc["version"] == STATUS_VERSION
        assert doc["campaign"]["benchmark"] == "kmeans"
        assert doc["campaign"]["scale"] == "tiny"
        assert doc["runs_done"] == 2
        assert doc["outcomes"] == {"Masked": 1, "SDC": 1}
        assert doc["current_cell"]["cell"] == "w/WA/VR15"
        assert doc["current_cell"]["avm"]["avm"] == 0.5
        assert doc["workers"]["pool_size"] == 2
        assert not doc["finished"]
        assert doc["shards"] is None  # unsharded campaign
        json.dumps(doc)  # must be JSON-serialisable

    def test_update_shards_lands_in_snapshot(self):
        state = CampaignState()
        state.apply(ShardStatus({"items": 4, "done": 1, "in_flight": 2,
                                 "shards": {"0": {"items": 2, "done": 1}}}))
        doc = status_document(state.snapshot())
        assert doc["shards"]["items"] == 4
        assert doc["shards"]["shards"]["0"]["done"] == 1
        json.dumps(doc)

    def test_end_cell_moves_current_to_cells(self):
        state = CampaignState()
        _drive_cell(state, ["Masked", "SDC", "Masked", "Masked"])
        state.apply(CellEnded(_result()))
        doc = status_document(state.snapshot())
        assert doc["current_cell"] is None
        assert doc["cells_done"] == 1
        [cell] = doc["cells"]
        assert cell["cell"] == "w/WA/VR15"
        assert cell["runs"] == 4
        assert cell["avm"]["avm"] == 0.25
        assert cell["degraded"] is False

    def test_close_marks_finished_and_workers_dead(self):
        state = CampaignState()
        _drive_cell(state, ["Masked"])
        state.close()
        doc = status_document(state.snapshot())
        assert doc["finished"] is True
        assert doc["workers"]["alive"] == 0

    def test_board_from_results_replays_journal_shape(self, tmp_path):
        """A journal replays into the same /status shape a live
        campaign serves."""
        journal = _write_journal(tmp_path / "j.jsonl", [
            _result(point="VR15"), _result(point="VR20")])
        state = CampaignState.replay(journal, benchmark="kmeans")
        doc = status_document(state.snapshot())
        assert set(doc) == STATUS_KEYS
        assert doc["finished"] is True
        assert doc["runs_done"] == 8
        assert doc["cells_done"] == 2
        assert doc["campaign"]["benchmark"] == "kmeans"
        assert doc["campaign"]["seed"] == 7
        assert doc["avm"]["avm"] == 0.25

    def test_registry_from_results(self, tmp_path):
        """A journal replays into the same /metrics families."""
        journal = _write_journal(tmp_path / "j.jsonl", [_result()])
        fams = _families(CampaignState.replay(journal))
        assert fams["repro_campaign_runs_total"] == {(): 4}
        assert fams["repro_campaign_outcome_total"][("SDC",)] == 1
        assert fams["repro_campaign_cells_total"] == {(): 1}


def _get(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode()


@pytest.fixture()
def plane():
    trajectory = TrajectoryRecorder()
    state = CampaignState("kmeans", 2021, cells_total=1,
                          views=[trajectory])
    _drive_cell(state, ["Masked", "SDC", "Masked", "Masked"])
    plane = ControlPlane(state, trajectory.points, port=0)
    plane.start()
    yield plane
    plane.close()


class TestControlPlane:
    def test_ephemeral_port_bound_and_surfaced(self, plane):
        # --metrics-port 0 asks the kernel; the bound port must be real
        # and visible both on the plane and in /status.
        assert plane.requested_port == 0
        assert plane.port > 0
        _, _, body = _get(plane.port, "/status")
        assert json.loads(body)["port"] == plane.port

    def test_metrics_endpoint_is_prometheus_text(self, plane):
        status, ctype, body = _get(plane.port, "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_campaign_runs_total counter" in body
        assert "repro_campaign_runs_total 4" in body
        assert 'repro_campaign_outcome_total{outcome="SDC"} 1' in body
        assert "repro_worker_alive 2" in body
        assert 'repro_campaign_avm{cell="w/WA/VR15"} 0.25' in body

    def test_status_endpoint_schema(self, plane):
        status, ctype, body = _get(plane.port, "/status")
        assert status == 200
        assert ctype.startswith("application/json")
        doc = json.loads(body)
        assert set(doc) == STATUS_KEYS
        assert doc["runs_done"] == 4

    def test_trajectory_endpoint_ndjson_and_cell_filter(self, plane):
        status, ctype, body = _get(plane.port, "/trajectory")
        assert status == 200
        assert ctype.startswith("application/x-ndjson")
        points = [json.loads(line) for line in body.splitlines() if line]
        assert len(points) == 4
        assert points[-1]["runs_done"] == 4
        _, _, filtered = _get(plane.port, "/trajectory?cell=nope")
        assert filtered == ""

    def test_index_and_404(self, plane):
        status, _, body = _get(plane.port, "/")
        assert status == 200 and "/metrics" in body
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(plane.port, "/bogus")
        excinfo.value.close()  # the error owns the response's socket
        assert excinfo.value.code == 404

    def test_close_releases_port(self, plane):
        port = plane.port
        plane.close()
        with pytest.raises(urllib.error.URLError):
            _get(port, "/status")

    def test_plane_without_observers_still_serves(self):
        with ControlPlane() as plane:
            _, _, metrics = _get(plane.port, "/metrics")
            assert metrics == ""
            _, _, body = _get(plane.port, "/status")
            doc = json.loads(body)
            assert doc["service"] == "repro-control-plane"
            _, _, traj = _get(plane.port, "/trajectory")
            assert traj == ""
