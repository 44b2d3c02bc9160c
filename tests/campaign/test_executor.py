"""Tests for the fault-tolerant campaign executor.

Covers the hardened classification boundary (every CRASH_EXCEPTIONS
member plus unlisted exception types), the wall-clock watchdog on guests
that hang without charging FP ops, journal resume producing bit-identical
results, retry/backoff for harness errors, and degraded-cell accounting.
"""

import signal
import time

import numpy as np
import pytest

from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.journal import read_journal
from repro.campaign.outcomes import Outcome
from repro.campaign.runner import (
    CRASH_EXCEPTIONS,
    CampaignRunner,
    WatchdogTimeout,
    guest_watchdog,
)
from repro.circuit.liberty import VR20
from repro.errors.base import ErrorModel, InjectionPlan, Victim
from repro.fpu.formats import FpOp
from repro.uarch.masking import MaskingProfile
from repro.workloads.base import FPContext, Workload

CORRUPTION = {FpOp.ADD_D: {0: 1 << 63}}


class _AddModel(ErrorModel):
    """Always sign-flips the first dynamic ADD_D instruction."""

    name = "ADD0"
    injection_technique = "fixed"

    def error_ratio(self, profile, point):
        return 1.0

    def plan(self, profile, point, rng):
        return InjectionPlan(model=self.name, point=point.name, victims=[
            Victim(FpOp.ADD_D, 0, 1 << 63)
        ])


class _SmallWorkload(Workload):
    """Minimal guest: a handful of adds, output = their sum."""

    name = "small"

    def _build_input(self):
        self.input_descriptor = "8 adds"

    def run(self, ctx: FPContext):
        return float(np.sum(ctx.add(np.ones(8), np.ones(8))))

    def outputs_equal(self, golden, observed):
        return golden == observed


class _RaisingWorkload(_SmallWorkload):
    """Raises a chosen exception once corruption lands (guest misbehaviour)."""

    name = "raiser"

    def __init__(self, exc_type, **kwargs):
        self.exc_type = exc_type
        super().__init__(scale="tiny", seed=5, **kwargs)

    def run(self, ctx: FPContext):
        out = ctx.add(np.ones(8), np.ones(8))
        if ctx.corrupted_events:
            raise self.exc_type("guest went off the rails")
        return float(np.sum(out))


class _BudgetHangWorkload(_SmallWorkload):
    """Loops charging FP ops forever: the op budget must stop it."""

    name = "budget_hang"

    def run(self, ctx: FPContext):
        out = ctx.add(np.ones(8), np.ones(8))
        if ctx.corrupted_events:
            while True:
                ctx.add(1.0, 1.0)
        return float(np.sum(out))


class _WallHangWorkload(_SmallWorkload):
    """Hangs without charging FP ops: only a wall-clock watchdog helps.

    Bounded at 30s so a broken watchdog fails the test instead of
    wedging the suite.
    """

    name = "wall_hang"

    def run(self, ctx: FPContext):
        out = ctx.add(np.ones(8), np.ones(8))
        if ctx.corrupted_events:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pass
            raise RuntimeError("watchdog never fired")
        return float(np.sum(out))


class _SwallowingHangWorkload(_SmallWorkload):
    """Hangs AND swallows every Exception (hostile guest loop)."""

    name = "swallow_hang"

    def run(self, ctx: FPContext):
        out = ctx.add(np.ones(8), np.ones(8))
        if ctx.corrupted_events:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    time.sleep(0.02)
                except Exception:
                    pass
            raise RuntimeError("watchdog never fired")
        return float(np.sum(out))


class _SignalBlockingHangWorkload(_SmallWorkload):
    """Hangs with SIGALRM blocked: only a process kill can stop it."""

    name = "block_hang"

    def run(self, ctx: FPContext):
        out = ctx.add(np.ones(8), np.ones(8))
        if ctx.corrupted_events:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                time.sleep(0.02)
            raise RuntimeError("parent never killed this worker")
        return float(np.sum(out))


def _runner(workload) -> CampaignRunner:
    return CampaignRunner(workload, seed=7)


@pytest.fixture
def no_masking(monkeypatch):
    """Pin microarchitectural masking off so every injection lands."""
    monkeypatch.setattr(MaskingProfile, "resolve",
                        lambda self, victim, rng: (False, None))


class TestClassificationBoundary:
    @pytest.mark.parametrize("exc_type", CRASH_EXCEPTIONS)
    def test_each_crash_exception_classified(self, exc_type):
        runner = _runner(_RaisingWorkload(exc_type))
        execution = runner.run_guest(CORRUPTION)
        assert execution.outcome is Outcome.CRASH
        assert execution.unexpected is None

    def test_unlisted_exception_is_crash_but_visible(self):
        runner = _runner(_RaisingWorkload(ValueError))
        execution = runner.run_guest(CORRUPTION)
        assert execution.outcome is Outcome.CRASH
        assert "ValueError" in execution.unexpected

    def test_unlisted_exception_does_not_abort_campaign(self, no_masking):
        runner = _runner(_RaisingWorkload(ValueError))
        result = runner.campaign(_AddModel(), VR20, runs=10)
        assert result.counts.total == 10
        assert result.counts.counts[Outcome.CRASH] == 10

    def test_op_budget_timeout(self):
        runner = _runner(_BudgetHangWorkload(scale="tiny", seed=5))
        execution = runner.run_guest(CORRUPTION)
        assert execution.outcome is Outcome.TIMEOUT
        assert not execution.watchdog

    def test_clean_run_masked_vs_sdc(self):
        runner = _runner(_SmallWorkload(scale="tiny", seed=5))
        assert runner.run_guest({}).outcome is Outcome.MASKED
        assert runner.run_guest(CORRUPTION).outcome is Outcome.SDC

    def test_run_once_routes_through_boundary(self, no_masking):
        runner = _runner(_RaisingWorkload(IndexError))
        execution = runner.execute_run(_AddModel(), VR20, 0)
        assert execution.outcome is Outcome.CRASH


class TestWatchdog:
    def test_guest_watchdog_raises(self):
        with pytest.raises(WatchdogTimeout):
            with guest_watchdog(0.1):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    pass

    def test_watchdog_not_swallowed_by_guest_except(self):
        """WatchdogTimeout derives from BaseException on purpose."""
        assert not issubclass(WatchdogTimeout, Exception)

    def test_wall_hang_classified_timeout_serial(self, no_masking):
        runner = _runner(_WallHangWorkload(scale="tiny", seed=5))
        config = ExecutorConfig(wall_clock_timeout=0.2)
        result = CampaignExecutor(runner, config).run_cell(
            _AddModel(), VR20, runs=2
        )
        assert result.counts.counts[Outcome.TIMEOUT] == 2
        assert result.stats.watchdog_kills == 2

    def test_exception_swallowing_hang_still_timed_out(self, no_masking):
        """A guest's blanket ``except Exception`` can't eat the watchdog."""
        runner = _runner(_SwallowingHangWorkload(scale="tiny", seed=5))
        config = ExecutorConfig(wall_clock_timeout=0.2)
        result = CampaignExecutor(runner, config).run_cell(
            _AddModel(), VR20, runs=1
        )
        assert result.counts.counts[Outcome.TIMEOUT] == 1

    def test_signal_blocking_hang_killed_by_pool_watchdog(self, no_masking):
        """A worker stuck with SIGALRM blocked is killed by the parent."""
        runner = _runner(_SignalBlockingHangWorkload(scale="tiny", seed=5))
        config = ExecutorConfig(workers=1, wall_clock_timeout=0.2,
                                kill_grace=0.3)
        result = CampaignExecutor(runner, config).run_cell(
            _AddModel(), VR20, runs=1
        )
        assert result.counts.counts[Outcome.TIMEOUT] == 1
        assert result.stats.watchdog_kills == 1
        assert result.stats.worker_restarts >= 1


class _FailingPlanModel(_AddModel):
    """Harness-side bug: planning always explodes."""

    name = "BROKEN"

    def plan(self, profile, point, rng):
        raise RuntimeError("harness-side failure")


class _TransientPlanModel(_AddModel):
    """Fails the first planning attempt of every run, then recovers."""

    name = "TRANSIENT"

    def __init__(self):
        self._seen = set()

    def plan(self, profile, point, rng):
        if rng.name not in self._seen:
            self._seen.add(rng.name)
            raise RuntimeError("transient harness failure")
        return super().plan(profile, point, rng)


class TestRetriesAndDegradation:
    def test_transient_harness_errors_retried(self, tmp_path):
        runner = _runner(_SmallWorkload(scale="tiny", seed=5))
        config = ExecutorConfig(max_retries=2, backoff=0.001,
                                journal_path=str(tmp_path / "j.jsonl"))
        with CampaignExecutor(runner, config) as executor:
            result = executor.run_cell(_TransientPlanModel(), VR20, runs=8)
        errors = read_journal(tmp_path / "j.jsonl").harness_errors
        assert result.counts.total == 8
        assert result.stats.retries == 8
        assert result.stats.harness_errors == 8
        assert not result.degraded
        # Harness failures are journaled distinctly, never as outcomes.
        assert len(errors) == 8
        assert all("transient harness failure" in e["error"]
                   for e in errors)

    def test_persistent_harness_errors_degrade_cell(self):
        runner = _runner(_SmallWorkload(scale="tiny", seed=5))
        config = ExecutorConfig(max_retries=1, backoff=0.001,
                                degraded_threshold=0.2)
        result = CampaignExecutor(runner, config).run_cell(
            _FailingPlanModel(), VR20, runs=10
        )
        assert result.degraded
        assert result.stats.failed == 10  # nothing completed
        assert result.counts.total == 0   # partial (here: empty) counts
        # Early abort: 3 permanent failures blow the 20% budget of 10.
        assert result.stats.harness_errors == 6  # 3 runs x 2 attempts

    def test_guest_outcomes_never_retried(self, no_masking):
        runner = _runner(_RaisingWorkload(ZeroDivisionError))
        config = ExecutorConfig(max_retries=3, backoff=0.001)
        result = CampaignExecutor(runner, config).run_cell(
            _AddModel(), VR20, runs=5
        )
        assert result.counts.counts[Outcome.CRASH] == 5
        assert result.stats.retries == 0
        assert result.stats.harness_errors == 0


class TestPoolIsolation:
    def test_pool_matches_serial_bitwise(self, tiny_runners, wa_models):
        runner = tiny_runners["srad_v1"]
        model = wa_models["srad_v1"]
        serial = runner.campaign(model, VR20, runs=24)
        config = ExecutorConfig(workers=3, wall_clock_timeout=60.0)
        pooled = CampaignExecutor(runner, config).run_cell(
            model, VR20, runs=24
        )
        assert pooled.counts.counts == serial.counts.counts
        assert pooled.uarch_masked == serial.uarch_masked
        assert pooled.runs_without_injection == serial.runs_without_injection
        assert pooled.stats.workers == 3

    def test_guest_crash_contained_in_pool(self, no_masking):
        runner = _runner(_RaisingWorkload(ValueError))
        config = ExecutorConfig(workers=2, wall_clock_timeout=60.0)
        result = CampaignExecutor(runner, config).run_cell(
            _AddModel(), VR20, runs=6
        )
        assert result.counts.counts[Outcome.CRASH] == 6

    def test_harness_error_recycles_worker_in_pool(self, tmp_path):
        class _MarkerTransientModel(_AddModel):
            """First attempt per run fails; the marker survives recycling."""

            name = "TRANSIENT"

            def plan(self, profile, point, rng):
                marker = tmp_path / rng.name.replace("/", "_")
                if not marker.exists():
                    marker.write_text("seen")
                    raise RuntimeError("transient harness failure")
                return super().plan(profile, point, rng)

        runner = _runner(_SmallWorkload(scale="tiny", seed=5))
        config = ExecutorConfig(workers=2, max_retries=2, backoff=0.001,
                                wall_clock_timeout=60.0)
        result = CampaignExecutor(runner, config).run_cell(
            _MarkerTransientModel(), VR20, runs=6
        )
        # Each run's first attempt fails, the worker is recycled, and the
        # retry on a fresh worker succeeds.
        assert result.counts.total == 6
        assert result.stats.harness_errors == 6
        assert result.stats.retries == 6
        assert result.stats.worker_restarts >= 6
        assert not result.degraded


class TestResume:
    def _truncated_copy(self, src, dst, keep_runs):
        lines = src.read_text().splitlines()
        kept, runs_seen = [], 0
        for line in lines:
            if '"type":"run"' in line:
                if runs_seen >= keep_runs:
                    continue
                runs_seen += 1
            elif '"type":"cell"' in line:
                continue
            kept.append(line)
        # A SIGKILL mid-write leaves a torn final line: must be tolerated.
        dst.write_text("\n".join(kept) + '\n{"type":"run","work')

    def test_resume_mid_cell_bit_identical(self, tmp_path, tiny_runners,
                                           wa_models):
        runner = tiny_runners["srad_v1"]
        model = wa_models["srad_v1"]
        baseline = runner.campaign(model, VR20, runs=30)

        full_path = tmp_path / "full.jsonl"
        config = ExecutorConfig(journal_path=str(full_path))
        with CampaignExecutor(runner, config) as executor:
            executor.run_cell(model, VR20, runs=30)

        killed_path = tmp_path / "killed.jsonl"
        self._truncated_copy(full_path, killed_path, keep_runs=13)
        resume_config = ExecutorConfig(journal_path=str(killed_path),
                                       resume=True)
        with CampaignExecutor(runner, resume_config) as executor:
            resumed = executor.run_cell(model, VR20, runs=30)

        assert resumed.counts.counts == baseline.counts.counts
        assert resumed.uarch_masked == baseline.uarch_masked
        assert (resumed.runs_without_injection
                == baseline.runs_without_injection)
        assert resumed.stats.resumed == 13
        assert resumed.stats.executed == 17

    def test_resume_complete_cell_executes_nothing(self, tmp_path,
                                                   tiny_runners, wa_models):
        runner = tiny_runners["cg"]
        model = wa_models["cg"]
        path = tmp_path / "journal.jsonl"
        config = ExecutorConfig(journal_path=str(path))
        with CampaignExecutor(runner, config) as executor:
            first = executor.run_cell(model, VR20, runs=12)
        resume_config = ExecutorConfig(journal_path=str(path), resume=True)
        with CampaignExecutor(runner, resume_config) as executor:
            second = executor.run_cell(model, VR20, runs=12)
        assert second.stats.resumed == 12
        assert second.stats.executed == 0
        assert second.counts.counts == first.counts.counts

    def test_fresh_journal_truncates_without_resume(self, tmp_path,
                                                    tiny_runners, wa_models):
        runner = tiny_runners["cg"]
        model = wa_models["cg"]
        path = tmp_path / "journal.jsonl"
        for _ in range(2):
            config = ExecutorConfig(journal_path=str(path))
            with CampaignExecutor(runner, config) as executor:
                result = executor.run_cell(model, VR20, runs=5)
            assert result.stats.resumed == 0
            assert result.stats.executed == 5
