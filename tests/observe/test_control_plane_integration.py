"""Integration tests for the live control plane and trace stitching.

Drives real multi-worker campaigns with the full observability stack
(a campaign state with its trajectory view in the executor's monitor
slot, scraped over an ephemeral HTTP port) and proves the two
load-bearing properties: the documented series are served, and an
observed campaign is bit-identical to an unobserved one.
"""

import json
import urllib.request

import pytest

from repro import telemetry
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.journal import canonical_journal
from repro.circuit.liberty import VR20
from repro.observe import CampaignState, TrajectoryRecorder
from repro.observe.httpd import ControlPlane
from repro.telemetry.sinks import read_trace, spans_for_run


def _get(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode()


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.clear_trace_context()
    telemetry.disable()


class TestServedCampaign:
    def test_two_worker_campaign_scrapes_documented_series(
            self, tiny_runners, wa_models):
        runner = tiny_runners["kmeans"]
        model = wa_models["kmeans"]
        trajectory = TrajectoryRecorder()
        state = CampaignState("kmeans", 11, cells_total=1,
                              views=[trajectory])
        config = ExecutorConfig(workers=2, wall_clock_timeout=60.0)
        with ControlPlane(state, trajectory.points, port=0) as plane:
            with CampaignExecutor(runner, config,
                                  monitor=state) as executor:
                result = executor.run_cell(model, VR20, runs=12)

            metrics = _get(plane.port, "/metrics")
            for series in ("repro_campaign_runs_total",
                           "repro_campaign_outcome_total",
                           "repro_worker_alive",
                           "repro_campaign_avm"):
                assert series in metrics, f"missing {series}"
            assert "repro_campaign_runs_total 12" in metrics

            doc = json.loads(_get(plane.port, "/status"))
            assert doc["port"] == plane.port
            assert doc["runs_done"] == 12
            assert doc["cells_done"] == 1
            assert doc["finished"] is True  # executor.close() ran
            assert sum(doc["outcomes"].values()) == 12
            [cell] = doc["cells"]
            assert cell["runs"] == 12
            assert cell["avm"]["avm"] == pytest.approx(result.counts.avm)

            points = [json.loads(line) for line
                      in _get(plane.port, "/trajectory").splitlines()
                      if line]
            assert points[-1]["runs_done"] == 12
            assert points[-1]["avm"] == pytest.approx(result.counts.avm)


class TestStitchedWorkerSpans:
    def test_worker_spans_reach_parent_trace(self, tmp_path,
                                             tiny_runners, wa_models):
        trace = tmp_path / "trace.jsonl"
        runner = tiny_runners["kmeans"]
        model = wa_models["kmeans"]
        collector = telemetry.enable()
        from repro.telemetry import JsonlSink

        sink = JsonlSink(trace)
        collector.add_sink(sink)
        telemetry.set_trace_context(
            telemetry.TraceContext(campaign_id="itest"))
        try:
            config = ExecutorConfig(workers=2, wall_clock_timeout=60.0)
            with CampaignExecutor(runner, config) as executor:
                executor.run_cell(model, VR20, runs=6)
        finally:
            telemetry.clear_trace_context()
            sink.close(collector)
            telemetry.disable()

        events = read_trace(trace)
        run_spans = [e for e in events if e.get("type") == "span"
                     and e.get("name") == "campaign.run"]
        assert len(run_spans) == 6
        parent_pid = None
        for span in run_spans:
            attrs = span["attrs"]
            assert attrs["campaign_id"] == "itest"
            assert attrs["cell"] == f"kmeans/{model.name}/VR20"
            assert attrs["run_key"].startswith(
                f"kmeans/{model.name}/VR20/")
            assert attrs["pid"] > 0
            parent_pid = attrs["pid"] if parent_pid is None else parent_pid
        # With a 2-worker pool the runs executed in forked workers, so
        # the stitched spans carry more than one pid.
        pids = {s["attrs"]["pid"] for s in run_spans}
        assert len(pids) >= 2

        # spans_for_run reassembles one run's causal trail by run_key.
        key = run_spans[0]["attrs"]["run_key"]
        trail = spans_for_run(events, key)
        assert any(s["name"] == "campaign.run" for s in trail)
        assert all(s["attrs"]["run_key"] == key for s in trail)


class TestObservabilityIsInert:
    """The acceptance-critical differential: observability changes nothing."""

    def test_observed_campaign_bit_identical_to_plain(self, tmp_path):
        from repro.cli import main

        plain_journal = tmp_path / "plain.jsonl"
        observed_journal = tmp_path / "observed.jsonl"
        base = ["campaign", "kmeans", "--scale", "tiny", "--runs", "10",
                "--vr", "20", "--seed", "77", "--workers", "2"]
        assert main(base + ["--journal", str(plain_journal)]) == 0
        assert main(base + [
            "--journal", str(observed_journal),
            "--trace", str(tmp_path / "t.jsonl"),
            "--trajectory", str(tmp_path / "traj.jsonl"),
            "--serve", "--metrics-port", "0",
            "--port-file", str(tmp_path / "port.txt"),
        ]) == 0
        # Same classified outcomes, same order, same run keys: the
        # canonical journal form is byte-identical.
        assert (canonical_journal(plain_journal)
                == canonical_journal(observed_journal))

    def test_observed_campaign_same_outcomes_serial(self, tmp_path,
                                                    tiny_runners,
                                                    wa_models):
        runner = tiny_runners["sobel"]
        model = wa_models["sobel"]
        plain = runner.campaign(model, VR20, runs=8)

        trajectory = TrajectoryRecorder()
        state = CampaignState(views=[trajectory])
        with ControlPlane(state, trajectory.points, port=0):
            observed = CampaignExecutor(
                runner, ExecutorConfig(), monitor=state).run_cell(
                    model, VR20, runs=8)
        assert observed.counts.counts == plain.counts.counts
        assert observed.counts.avm == plain.counts.avm
