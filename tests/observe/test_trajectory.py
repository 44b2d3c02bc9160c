"""Tests for the CI-trajectory view and its HTML report section."""

import json

import pytest

from repro.campaign.adaptive import StopDecision
from repro.campaign.executor import CellStats
from repro.campaign.journal import RunRecord
from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.runner import CampaignResult
from repro.observe.state import (
    CampaignState,
    CellBegun,
    CellEnded,
    RunClassified,
    StopDecided,
)
from repro.observe.stats import avm_estimate
from repro.observe.trajectory import (
    TrajectoryPoint,
    TrajectoryRecorder,
    load_trajectory,
    points_by_cell,
)


class _Clock:
    def __init__(self):
        self.t = 50.0

    def __call__(self):
        return self.t


def _record(outcome="Masked", run_index=0):
    return RunRecord(workload="w", model="WA", point="VR15",
                     run_index=run_index, outcome=outcome, wall_ms=2.0)


def _result(counts, workload="w", point="VR15"):
    oc = OutcomeCounts()
    for outcome, n in counts.items():
        for _ in range(n):
            oc.record(Outcome(outcome))
    return CampaignResult(workload=workload, model="WA", point=point,
                          counts=oc, error_ratio=0.1,
                          stats=CellStats(runs=oc.total, executed=oc.total))


def _state(recorder, clock=None):
    return CampaignState(views=[recorder],
                         **({"now": clock} if clock else {}))


def _drive(recorder, outcomes, runs=None, clock=None):
    """A state feeding ``recorder`` one cell of ``outcomes``."""
    state = _state(recorder, clock)
    runs = len(outcomes) if runs is None else runs
    state.apply(CellBegun("w", "WA", "VR15", runs=runs))
    for i, outcome in enumerate(outcomes):
        state.apply(RunClassified(_record(outcome, i), CellStats(runs=runs)))
    return state


class TestRecorder:
    def test_one_point_per_run_at_stride_one(self):
        recorder = TrajectoryRecorder()
        _drive(recorder, ["Masked", "SDC", "Masked"])
        assert [p.runs_done for p in recorder.points] == [1, 2, 3]
        assert recorder.points[1].avm == 0.5
        assert recorder.points[1].ci_lo < 0.5 < recorder.points[1].ci_hi

    def test_end_cell_appends_authoritative_point(self):
        recorder = TrajectoryRecorder()
        state = _drive(recorder, ["Masked", "SDC"])
        # The cell actually finished with more runs than the run events
        # showed: the final point uses the result's counts.
        state.apply(CellEnded(_result({"Masked": 3, "SDC": 1})))
        final = recorder.points[-1]
        assert final.runs_done == 4
        assert final.avm == 0.25
        est = avm_estimate(1, 4)
        assert final.ci_lo == est.ci_lo and final.ci_hi == est.ci_hi

    def test_wall_s_measures_from_cell_start(self):
        clock = _Clock()
        recorder = TrajectoryRecorder()
        state = _state(recorder, clock)
        state.apply(CellBegun("w", "WA", "VR15", runs=2))
        clock.t += 1.5
        state.apply(RunClassified(_record("Masked", 0)))
        assert recorder.points[-1].wall_s == 1.5

    def test_points_group_by_cell(self):
        recorder = TrajectoryRecorder()
        state = _drive(recorder, ["Masked"])
        state.apply(CellEnded(_result({"Masked": 1})))
        state.apply(CellBegun("w", "WA", "VR20", runs=1))
        state.apply(RunClassified(_record("SDC", 0)))
        grouped = points_by_cell(recorder.points)
        assert set(grouped) == {"w/WA/VR15", "w/WA/VR20"}

    def test_half_width_property(self):
        p = TrajectoryPoint(cell="c", runs_done=4, avm=0.25,
                            ci_lo=0.1, ci_hi=0.5, wall_s=0.0)
        assert p.half_width == 0.2


class TestStreamRoundTrip:
    def test_jsonl_file_roundtrip(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        recorder = TrajectoryRecorder(path=path)
        state = _drive(recorder, ["Masked", "SDC"])
        state.apply(CellEnded(_result({"Masked": 1, "SDC": 1})))
        state.close()

        lines = path.read_text().strip().splitlines()
        meta = json.loads(lines[0])
        assert meta == {"type": "meta", "trace": "repro-trajectory",
                        "version": 1}
        loaded = load_trajectory(path)
        assert loaded == recorder.points

    def test_load_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        recorder = TrajectoryRecorder(path=path)
        _drive(recorder, ["Masked"])
        recorder.close()
        with open(path, "a") as fh:
            fh.write('{"type": "trajectory", "cell": "torn')  # no newline
        assert len(load_trajectory(path)) == 1

    def test_interleaved_sink_records_filtered(self, tmp_path):
        class Sink:
            def __init__(self):
                self.payloads = []

            def emit(self, payload):
                self.payloads.append(payload)

        sink = Sink()
        recorder = TrajectoryRecorder(sink=sink)
        _drive(recorder, ["Masked"])
        assert sink.payloads[0]["type"] == "trajectory"

    def test_points_by_cell_preserves_order(self):
        points = [TrajectoryPoint("a", i, 0.0, 0.0, 0.0, 0.0)
                  for i in (1, 2)]
        points.append(TrajectoryPoint("b", 1, 0.0, 0.0, 0.0, 0.0))
        grouped = points_by_cell(points)
        assert [p.runs_done for p in grouped["a"]] == [1, 2]


def _decision(n=3, avm=1 / 3, rule="ci-target", target=0.1):
    est = avm_estimate(int(round(avm * n)), n)
    return StopDecision(rule=rule, n=n, budget=16,
                        non_masked=int(round(avm * n)), avm=avm,
                        ci_lo=est.ci_lo, ci_hi=est.ci_hi, target=target,
                        confidence=0.95, looks=1)


class TestStopProvenance:
    def test_on_stop_records_point_even_between_strides(self):
        """The stop decision lands as its own point after the per-run
        ones — it is the one point the differential harness reads
        back."""
        recorder = TrajectoryRecorder()
        state = _drive(recorder, ["Masked", "SDC", "Masked"], runs=16)
        assert all(p.stop_rule is None for p in recorder.points)
        state.apply(StopDecided(_decision(n=3, avm=1 / 3)))
        assert len(recorder.points) == 4
        point = recorder.points[-1]
        assert point.runs_done == 3
        assert point.stop_rule == "ci-target"
        assert point.stop_target == 0.1
        assert point.avm == pytest.approx(1 / 3)

    def test_plain_points_omit_stop_fields(self):
        """Pre-adaptive streams stay byte-identical: a point without
        stop provenance serialises without the keys at all."""
        recorder = TrajectoryRecorder()
        _drive(recorder, ["Masked"])
        d = recorder.points[0].to_dict()
        assert "stop_rule" not in d
        assert "stop_target" not in d

    def test_stop_point_roundtrips_through_jsonl(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        recorder = TrajectoryRecorder(path=path)
        state = _drive(recorder, ["Masked", "SDC", "Masked"])
        state.apply(StopDecided(_decision(n=3, avm=1 / 3, rule="budget",
                                          target=0.03)))
        state.close()
        loaded = load_trajectory(path)
        assert loaded == recorder.points
        stops = [p for p in loaded if p.stop_rule is not None]
        assert len(stops) == 1
        assert stops[0].stop_rule == "budget"
        assert stops[0].stop_target == 0.03

    def test_torn_tail_after_stop_point_tolerated(self, tmp_path):
        """A kill mid-write after the stop record must not lose the
        stop provenance already on disk."""
        path = tmp_path / "traj.jsonl"
        recorder = TrajectoryRecorder(path=path)
        state = _drive(recorder, ["Masked", "SDC"])
        state.apply(StopDecided(_decision(n=2, avm=0.5)))
        state.close()
        with open(path, "a") as fh:
            fh.write('{"type": "trajectory", "cell": "torn')  # no newline
        loaded = load_trajectory(path)
        assert [p.stop_rule for p in loaded] == [None, None, "ci-target"]

    def test_executor_emits_stop_point(self, tmp_path, wa_models):
        """End to end: an adaptive cell under a live recorder lands its
        stop decision in the trajectory stream."""
        from repro.campaign.adaptive import AdaptiveConfig
        from repro.campaign.executor import CampaignExecutor
        from repro.campaign.runner import CampaignRunner
        from repro.circuit.liberty import VR20
        from repro.workloads import make_workload

        runner = CampaignRunner(
            make_workload("kmeans", scale="tiny", seed=11), seed=11)
        runner.golden()
        recorder = TrajectoryRecorder()
        config = AdaptiveConfig(ci_target=0.28, min_runs=4, growth=1.5)
        with CampaignExecutor(runner,
                              monitor=_state(recorder)) as executor:
            result = executor.run_cell(wa_models["kmeans"], VR20,
                                       runs=16, adaptive=config)
        stop = result.stats.stop
        stop_points = [p for p in recorder.points
                       if p.stop_rule is not None]
        assert len(stop_points) == 1
        assert stop_points[0].runs_done == stop.n
        assert stop_points[0].stop_rule == stop.rule
        assert stop_points[0].ci_lo == stop.ci_lo
        assert stop_points[0].ci_hi == stop.ci_hi


class TestHtmlSection:
    def _points(self):
        pts = []
        for runs in (4, 8, 12):
            est = avm_estimate(runs // 4, runs)
            pts.append(TrajectoryPoint(
                cell="w/WA/VR15", runs_done=runs, avm=est.avm,
                ci_lo=est.ci_lo, ci_hi=est.ci_hi, wall_s=runs * 0.1))
        return pts

    def test_golden_snippet(self):
        # Pin the load-bearing pieces of the CI-convergence section:
        # heading, CI band polygon, AVM polyline, final-point summary.
        from repro.observe.html_report import _section_trajectory

        html = _section_trajectory(self._points())
        assert "<h2>CI convergence (Wilson 95%)</h2>" in html
        assert 'class="ci-band"' in html
        assert "<polyline" in html
        assert "w/WA/VR15" in html
        assert "after 12 runs" in html
        # The data table carries one row per cell with the final stats.
        assert "<td>12</td>" in html
        assert "25.0%" in html

    def test_empty_points_renders_nothing(self):
        from repro.observe.html_report import _section_trajectory

        assert _section_trajectory([]) == ""

    def test_report_page_includes_section(self, tmp_path):
        from repro.observe.html_report import write_report

        out = write_report(tmp_path / "r.html", [_result({"Masked": 4})],
                           trajectory_points=self._points())
        text = out.read_text()
        assert "CI convergence" in text
        assert "ci-band" in text

    def test_report_page_without_points_omits_section(self, tmp_path):
        from repro.observe.html_report import write_report

        out = write_report(tmp_path / "r.html", [_result({"Masked": 4})])
        assert "CI convergence" not in out.read_text()
