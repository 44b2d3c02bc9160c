"""Integration tests for the campaign runner."""

import numpy as np
import pytest

from repro import telemetry
from repro.campaign.outcomes import Outcome
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.circuit.liberty import VR15, VR20
from repro.errors.base import ErrorModel, InjectionPlan, Victim
from repro.fpu.formats import FpOp
from repro.telemetry.core import Collector
from repro.workloads import make_workload


class _NullModel(ErrorModel):
    """Never injects (an error-free operating point)."""

    name = "NULL"
    injection_technique = "none"

    def error_ratio(self, profile, point):
        return 0.0

    def plan(self, profile, point, rng):
        return InjectionPlan(model=self.name, point=point.name)


class _HammerModel(ErrorModel):
    """Always sign-flips a mid-stream multiply (forces visible errors)."""

    name = "HAMMER"
    injection_technique = "fixed"

    def error_ratio(self, profile, point):
        return 1.0

    def plan(self, profile, point, rng):
        count = profile.counts_by_op.get(FpOp.MUL_D, 1)
        index = int(rng.integers(count // 2, count))
        return InjectionPlan(model=self.name, point=point.name, victims=[
            Victim(FpOp.MUL_D, index, 1 << 63)
        ])


class TestGoldenPhase:
    def test_golden_cached(self, tiny_runners):
        runner = tiny_runners["sobel"]
        assert runner.golden() is runner.golden()

    def test_golden_profile_complete(self, tiny_runners):
        golden = tiny_runners["cg"].golden()
        assert golden.profile.fp_instructions > 0
        assert golden.profile.total_instructions > (
            golden.profile.fp_instructions
        )
        assert golden.op_budget == 2 * golden.fp_ops_executed
        assert golden.schedule.total_cycles > 0

    def test_masking_profile_sane(self, tiny_runners):
        golden = tiny_runners["mg"].golden()
        assert 0.0 <= golden.masking.total_rate < 0.5


class TestRunOnce:
    def test_null_model_always_masked(self, tiny_runners):
        runner = tiny_runners["sobel"]
        for i in range(5):
            execution = runner.execute_run(_NullModel(), VR20, i)
            assert execution.outcome is Outcome.MASKED

    def test_hammer_model_produces_errors(self, tiny_runners):
        runner = tiny_runners["sobel"]
        outcomes = {runner.execute_run(_HammerModel(), VR20, i).outcome
                    for i in range(10)}
        assert outcomes - {Outcome.MASKED}

    def test_deterministic_per_index(self, tiny_runners):
        runner = tiny_runners["srad_v1"]
        a = runner.execute_run(_HammerModel(), VR20, 3).outcome
        b = runner.execute_run(_HammerModel(), VR20, 3).outcome
        assert a is b


class TestCampaign:
    def test_default_runs_is_1068(self, tiny_runners):
        """Without an explicit count, campaigns use the paper's size."""
        from repro.utils.stats import confidence_sample_size

        assert confidence_sample_size() == 1068

    def test_counts_sum_to_runs(self, tiny_runners):
        result = tiny_runners["sobel"].campaign(_HammerModel(), VR20, runs=25)
        assert result.counts.total == 25
        assert isinstance(result, CampaignResult)
        assert result.model == "HAMMER"
        assert result.point == "VR20"

    def test_campaign_reproducible(self, tiny_runners, wa_models):
        runner = tiny_runners["cg"]
        model = wa_models["cg"]
        r1 = runner.campaign(model, VR20, runs=30)
        r2 = runner.campaign(model, VR20, runs=30)
        assert r1.counts.counts == r2.counts.counts
        assert r1.error_ratio == r2.error_ratio

    def test_error_free_point_all_masked(self, tiny_runners, wa_models):
        """WA on hotspot at VR15 injects nothing: AVM must be exactly 0."""
        result = tiny_runners["hotspot"].campaign(
            wa_models["hotspot"], VR15, runs=40
        )
        assert result.avm == 0.0
        assert result.runs_without_injection == 40
        assert result.error_ratio == 0.0

    def test_da_pessimistic_on_hotspot_vr15(self, tiny_runners, da_model):
        """The paper's misleading-DA observation, as an invariant."""
        result = tiny_runners["hotspot"].campaign(da_model, VR15, runs=40)
        assert result.avm > 0.2

    def test_uarch_masking_counted(self, tiny_runners, da_model):
        result = tiny_runners["kmeans"].campaign(da_model, VR20, runs=40)
        assert result.uarch_masked >= 0

    def test_crash_and_timeout_paths_reachable(self, tiny_runners,
                                               wa_models):
        """Across srad (traps) campaigns, Crash outcomes appear."""
        result = tiny_runners["srad_v1"].campaign(
            wa_models["srad_v1"], VR20, runs=60
        )
        assert result.counts.counts[Outcome.CRASH] > 0


class _SpanSink:
    def __init__(self):
        self.records = []

    def on_span(self, record):
        self.records.append(record)


class TestSpans:
    def test_one_span_per_guest_and_replayed_run(self, tiny_runners):
        """A telemetry-on cell emits one ``campaign.guest`` span per guest
        run and, nested in it, one ``campaign.ff.replay`` span per
        fast-forwarded run: cg replays from snapshots, bt (no step
        protocol) in full."""
        for name, replayed in (("cg", True), ("bt", False)):
            sink = _SpanSink()
            collector = telemetry.enable(Collector())
            collector.add_sink(sink)
            try:
                tiny_runners[name].campaign(_HammerModel(), VR20, runs=6)
            finally:
                telemetry.disable()
            guest_runs = collector.counters["campaign.guest_runs"]
            assert guest_runs > 0
            paths = [r.path for r in sink.records]
            guest = [p for p in paths if p.endswith("campaign.guest")]
            replay = [p for p in paths if p.endswith("campaign.ff.replay")]
            assert len(guest) == guest_runs
            assert len(replay) == (guest_runs if replayed else 0)
            assert all(p.endswith("/campaign.guest/campaign.ff.replay")
                       for p in replay)
