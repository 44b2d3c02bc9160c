"""Worker-death observability: the parent trace survives killed workers.

A forked worker inherits the parent's open telemetry sinks.  If
teardown is wrong, a worker that dies mid-run can leave interleaved or
torn lines in the parent's trace file, or the run simply vanishes from
the journal.  These tests kill a worker mid-cell (SIGALRM blocked, so
only the parent watchdog can stop it) and assert the parent's trace is
still well-formed and the journal tells the story.
"""

import json
import signal
import time

import numpy as np
import pytest

from repro import telemetry
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.journal import read_journal
from repro.campaign.outcomes import Outcome
from repro.campaign.runner import CampaignRunner
from repro.circuit.liberty import VR20
from repro.errors.base import ErrorModel, InjectionPlan, Victim
from repro.fpu.formats import FpOp
from repro.telemetry.sinks import JsonlSink, read_trace
from repro.uarch.masking import MaskingProfile
from repro.workloads.base import FPContext, Workload


class _AddModel(ErrorModel):
    name = "ADD0"
    injection_technique = "fixed"

    def error_ratio(self, profile, point):
        return 1.0

    def plan(self, profile, point, rng):
        return InjectionPlan(model=self.name, point=point.name, victims=[
            Victim(FpOp.ADD_D, 0, 1 << 63)
        ])


class _SignalBlockingHangWorkload(Workload):
    """Hangs with SIGALRM blocked: only a process kill can stop it."""

    name = "block_hang"

    def _build_input(self):
        self.input_descriptor = "8 adds"

    def run(self, ctx: FPContext):
        out = ctx.add(np.ones(8), np.ones(8))
        if ctx.corrupted_events:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                time.sleep(0.02)
            raise RuntimeError("parent never killed this worker")
        return float(np.sum(out))

    def outputs_equal(self, golden, observed):
        return golden == observed


@pytest.fixture(autouse=True)
def clean_observability():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture
def no_masking(monkeypatch):
    monkeypatch.setattr(MaskingProfile, "resolve",
                        lambda self, victim, rng: (False, None))


def _kill_one_worker_cell(trace_path, journal_path=None):
    """Run one pool cell whose single run hangs until the watchdog kills
    the worker, with telemetry recording into ``trace_path``."""
    workload = _SignalBlockingHangWorkload(scale="tiny", seed=5)
    runner = CampaignRunner(workload, seed=7)
    collector = telemetry.enable()
    sink = JsonlSink(trace_path)
    collector.add_sink(sink)
    try:
        config = ExecutorConfig(workers=1, wall_clock_timeout=0.2,
                                kill_grace=0.3, journal_path=journal_path)
        with CampaignExecutor(runner, config=config) as executor:
            result = executor.run_cell(_AddModel(), VR20, runs=1)
    finally:
        sink.close(collector)
        telemetry.disable()
    return result


class TestKilledWorkerTrace:
    def test_trace_is_well_formed_after_worker_kill(self, no_masking,
                                                    tmp_path):
        trace = tmp_path / "trace.jsonl"
        result = _kill_one_worker_cell(trace)
        assert result.counts.counts[Outcome.TIMEOUT] == 1
        assert result.stats.watchdog_kills == 1

        # Every line the parent wrote must be complete, parseable JSON:
        # the killed worker closed its inherited sink copy without
        # writing, so nothing interleaves with the parent's stream.
        lines = trace.read_text().splitlines()
        assert lines, "parent trace must not be empty"
        for line in lines:
            json.loads(line)
        events = read_trace(trace)
        assert events[0]["type"] == "meta"

    def test_killed_run_is_journaled_as_watchdog_timeout(self, no_masking,
                                                          tmp_path):
        journal = tmp_path / "journal.jsonl"
        _kill_one_worker_cell(tmp_path / "trace.jsonl", journal)

        (record,) = read_journal(journal).runs.values()
        assert record["watchdog"]
        assert record["outcome"] == "Timeout"
        assert (record["workload"], record["model"], record["point"],
                record["run_index"]) == ("block_hang", "ADD0", "VR20", 0)
        # The parent classified a run whose worker it had to kill; the
        # record says so instead of passing for a guest timeout.
        assert record["unexpected"] == "worker killed by watchdog"
