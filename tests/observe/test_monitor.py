"""Tests for the live campaign monitor (terminal view of the state)."""

import io

from repro.campaign.executor import CellStats
from repro.campaign.journal import RunRecord
from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.runner import CampaignResult
from repro.observe.monitor import CampaignMonitor
from repro.observe.state import (
    CampaignState,
    CellBegun,
    CellEnded,
    RunClassified,
)
from repro.utils.stats import wilson_interval


class _Clock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


def _record(outcome="Masked", run_index=0):
    return RunRecord(workload="w", model="WA", point="VR20",
                     run_index=run_index, outcome=outcome)


def _result(counts=None):
    oc = OutcomeCounts()
    for outcome, n in (counts or {"Masked": 3, "SDC": 1}).items():
        for _ in range(n):
            oc.record(Outcome(outcome))
    return CampaignResult(workload="w", model="WA", point="VR20",
                          counts=oc, error_ratio=0.1,
                          stats=CellStats(runs=4, executed=4, workers=2))


def _monitor(use_ansi=False, **kwargs):
    stream = io.StringIO()
    clock = _Clock()
    monitor = CampaignMonitor(stream=stream, use_ansi=use_ansi, **kwargs)
    state = CampaignState(views=[monitor], now=clock)
    return monitor, state, stream, clock


def _begin(state, runs, resumed=None):
    state.apply(CellBegun("w", "WA", "VR20", runs=runs,
                          resumed=resumed or {}))


class TestLogLineMode:
    def test_cell_lifecycle_emits_plain_lines(self):
        monitor, state, stream, clock = _monitor(total_cells=2)
        _begin(state, runs=4)
        clock.t += 10.0
        for i, outcome in enumerate(["Masked", "Masked", "Masked", "SDC"]):
            state.apply(RunClassified(_record(outcome, i),
                                      CellStats(runs=4, workers=2)))
            clock.t += 1.0
        state.apply(CellEnded(_result()))
        text = stream.getvalue()
        assert "\x1b[" not in text          # no ANSI outside a TTY
        assert "w/WA/VR20" in text
        assert "cell 1/2" in text
        assert "[done]" in text
        assert "2 workers" in text

    def test_avm_with_wilson_ci(self):
        monitor, state, stream, clock = _monitor()
        _begin(state, runs=4)
        for i, outcome in enumerate(["Masked", "Masked", "Masked", "SDC"]):
            state.apply(RunClassified(_record(outcome, i)))
        line = monitor.render(state.snapshot()).splitlines()[1]
        lo, hi = wilson_interval(1, 4)
        assert f"{0.25:6.1%}" in line
        assert f"{(hi - lo) / 2:5.1%}" in line
        assert "Masked 3" in line and "SDC 1" in line

    def test_rate_and_eta_from_executed_runs(self):
        monitor, state, stream, clock = _monitor()
        _begin(state, runs=100, resumed={"Masked": 20})
        clock.t += 10.0
        for i in range(20):
            state.apply(RunClassified(_record(run_index=i)))
        line = monitor.render(state.snapshot()).splitlines()[0]
        # 20 executed in 10s = 2 runs/s; 60 remaining -> 30s ETA.
        assert "2.0 runs/s" in line
        assert "ETA    30s" in line
        assert "40/100" in line

    def test_draws_are_throttled(self):
        monitor, state, stream, clock = _monitor(log_interval=5.0)
        _begin(state, runs=50)
        for i in range(10):   # all within the same log interval
            state.apply(RunClassified(_record(run_index=i)))
        assert stream.getvalue().count("\n") == 1  # cell begin only
        clock.t += 6.0
        state.apply(RunClassified(_record(run_index=10)))
        assert stream.getvalue().count("\n") == 2

    def test_unknown_outcomes_fold_into_other(self):
        monitor, state, stream, clock = _monitor()
        _begin(state, runs=2)
        state.apply(RunClassified(_record("Weird")))
        assert "other 1" in monitor.render(state.snapshot())


class TestAnsiMode:
    def test_in_place_refresh_rewrites_block(self):
        monitor, state, stream, clock = _monitor(use_ansi=True,
                                                 interval=0.0)
        _begin(state, runs=2)
        clock.t += 1.0
        state.apply(RunClassified(_record(run_index=0)))
        text = stream.getvalue()
        assert "\x1b[3F" in text            # cursor back up over the block
        assert "\x1b[2K" in text            # stale lines cleared
        state.close()

    def test_autodetects_non_tty(self):
        monitor = CampaignMonitor(stream=io.StringIO())
        assert not monitor.use_ansi

    def test_stats_absent_renders_serial(self):
        monitor, state, stream, clock = _monitor()
        _begin(state, runs=1)
        assert "serial" in monitor.render(state.snapshot())
