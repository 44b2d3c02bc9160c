"""Retry mechanics of the fault-tolerant executor.

Pins the pieces the chaos differential leans on: exponential backoff
with a hard cap, the retry heap releasing runs in backoff order, the
attempt accounting that bounds planned worker kills, and recycled-worker
bookkeeping when workers die pre-guest repeatedly.
"""

import heapq
import os
import signal
import time

import pytest

from repro.campaign.executor import (
    CampaignExecutor,
    CellStats,
    ExecutorConfig,
)
from repro.campaign.journal import read_journal
from repro.circuit.liberty import VR20

from tests.campaign.test_executor import (
    _AddModel,
    _SmallWorkload,
    _runner,
)


def _executor(**config):
    return CampaignExecutor(_runner(_SmallWorkload(scale="tiny", seed=5)),
                            ExecutorConfig(**config))


class TestBackoff:
    def test_doubles_per_attempt(self):
        executor = _executor(backoff=0.05, backoff_cap=2.0)
        assert executor._backoff(0) == pytest.approx(0.05)
        assert executor._backoff(1) == pytest.approx(0.10)
        assert executor._backoff(2) == pytest.approx(0.20)
        assert executor._backoff(3) == pytest.approx(0.40)

    def test_capped(self):
        executor = _executor(backoff=0.05, backoff_cap=2.0)
        assert executor._backoff(10) == 2.0
        assert executor._backoff(100) == 2.0  # no overflow blowup

    def test_cap_respected_from_first_attempt(self):
        executor = _executor(backoff=5.0, backoff_cap=0.1)
        assert executor._backoff(0) == 0.1


class TestRetryHeap:
    def _fail(self, executor, run_index, attempts, heap, stats):
        executor._record_harness_failure(
            _AddModel(), VR20, run_index, stats, attempts, heap,
            error="boom")

    def test_heap_orders_by_eligibility(self):
        """A first-attempt failure (short backoff) must be released
        before an earlier second-attempt failure (longer backoff)."""
        executor = _executor(backoff=0.2, backoff_cap=10.0, max_retries=3)
        attempts, heap, stats = {7: 1}, [], CellStats()
        self._fail(executor, 7, attempts, heap, stats)   # backoff 0.4
        self._fail(executor, 3, attempts, heap, stats)   # backoff 0.2
        assert [heapq.heappop(heap)[1] for _ in range(2)] == [3, 7]

    def test_attempts_incremented_and_counted(self):
        executor = _executor(backoff=0.001, max_retries=2)
        attempts, heap, stats = {}, [], CellStats()
        self._fail(executor, 0, attempts, heap, stats)
        self._fail(executor, 0, attempts, heap, stats)
        assert attempts[0] == 2
        assert stats.retries == 2
        assert stats.harness_errors == 2
        assert len(heap) == 2

    def test_exhausted_run_not_requeued(self):
        executor = _executor(backoff=0.001, max_retries=1)
        attempts, heap, stats = {}, [], CellStats()
        for _ in range(3):
            self._fail(executor, 0, attempts, heap, stats)
        # Only attempt 0 requeues: max_retries=1 allows one retry.
        assert len(heap) == 1
        assert stats.retries == 1
        assert stats.harness_errors == 3
        assert attempts[0] == 3

    def test_eligibility_times_are_in_the_future(self):
        executor = _executor(backoff=0.5, backoff_cap=10.0)
        attempts, heap, stats = {}, [], CellStats()
        before = time.monotonic()
        self._fail(executor, 0, attempts, heap, stats)
        eligible_at, run_index = heap[0]
        assert run_index == 0
        assert eligible_at >= before + 0.5


class _KillFirstAttemptModel(_AddModel):
    """SIGKILLs the worker on every run's first planning attempt.

    plan() runs pre-guest, so the parent must classify the death as a
    harness failure, retry the run, and account a worker restart — the
    exact path a chaos-planned worker kill takes.  The marker directory
    (shared through fork) makes the second attempt survive.
    """

    name = "KILLER"

    def __init__(self, marker_dir):
        self.marker_dir = marker_dir

    def plan(self, profile, point, rng):
        marker = self.marker_dir / rng.name.replace("/", "_")
        if not marker.exists():
            marker.write_text("died here")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().plan(profile, point, rng)


class TestRecycledWorkerAccounting:
    def test_pre_guest_death_retried_and_recycled(self, tmp_path):
        runner = _runner(_SmallWorkload(scale="tiny", seed=5))
        config = ExecutorConfig(workers=2, max_retries=2, backoff=0.001,
                                journal_path=str(tmp_path / "j.jsonl"))
        with CampaignExecutor(runner, config) as executor:
            result = executor.run_cell(_KillFirstAttemptModel(tmp_path),
                                       VR20, runs=4)
        errors = read_journal(tmp_path / "j.jsonl").harness_errors
        # Every run died once pre-guest, was retried and completed.
        assert result.counts.total == 4
        assert result.stats.harness_errors == 4
        assert result.stats.retries == 4
        assert result.stats.worker_restarts >= 4
        assert not result.degraded
        # The deaths are journaled as harness errors, not guest outcomes.
        assert len(errors) == 4
        assert all("worker died before guest" in e["error"]
                   for e in errors)

    def test_attempt_number_reaches_the_worker(self):
        """Retries ship the attempt count over the pipe — the bound a
        planned worker kill uses to guarantee progress.  With a 100%
        kill plan bounded at 2 kills, every run completes iff the worker
        sees real attempt numbers; a worker stuck at attempt 0 would die
        forever and degrade the cell."""
        from repro import chaos
        from repro.chaos import FaultPlan

        chaos.install(FaultPlan(seed=1, worker_kill_rate=1.0,
                                max_worker_kills=2))
        try:
            runner = _runner(_SmallWorkload(scale="tiny", seed=5))
            config = ExecutorConfig(workers=2, max_retries=2,
                                    backoff=0.001)
            with CampaignExecutor(runner, config) as executor:
                result = executor.run_cell(_AddModel(), VR20, runs=3)
        finally:
            chaos.uninstall()
        assert result.counts.total == 3
        assert not result.degraded
        assert result.stats.retries >= 3
        assert result.stats.worker_restarts >= 3


class TestOrphanedWorker:
    def test_worker_exits_when_parent_pid_mismatches(self):
        """An orphaned worker must exit on the getppid() check alone.

        The pipe is held open on purpose (sibling workers inherit each
        other's pipe ends at fork, so a dead coordinator never EOFs it)
        and the spawner's pid is passed as a fork argument: a worker
        orphaned before it could read getppid() itself would capture
        the reaper's pid and poll forever — the 300 s supervised-CLI
        hang this pins down.
        """
        import multiprocessing

        from repro.campaign.executor import _worker_main

        runner = _runner(_SmallWorkload(scale="tiny", seed=5))
        runner.golden()
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # parent_pid=1 simulates "coordinator died before the worker
        # started": getppid() (this test process) never matches it.
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, runner, _AddModel(), VR20,
                                 None, 1))
        proc.start()
        child_conn.close()
        try:
            proc.join(timeout=15.0)
            assert proc.exitcode == 0, (
                "orphaned worker still alive despite parent-pid "
                "mismatch and an open pipe")
        finally:
            parent_conn.close()
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
