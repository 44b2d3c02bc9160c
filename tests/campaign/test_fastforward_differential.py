"""Differential campaign equivalence: fast-forward vs full replay.

The fast-forward engine's contract is *bit-identity*: a campaign run
through snapshot restore + suffix replay (+ golden-tail early exit) must
be indistinguishable from the same campaign under full replay — same
outcomes, same SDC magnitudes (measured as ``repro explain`` measures
them), same journals (modulo wall-clock noise),
same AVM tables.  This suite proves the contract differentially across
snapshot intervals {1, 7, 64, inf}, all three error models, both VR
points, and executor worker counts {1, 4}.
"""

import json

import pytest

from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.fastforward import FastForwardConfig
from repro.campaign.journal import RunRecord
from repro.campaign.runner import CampaignRunner
from repro.observe.explain import Replayer
from repro.workloads import make_workload

from tests.conftest import POINTS

#: inf (None) = initial snapshot only; 64 > any tiny boundary count, so
#: it degenerates to inf for these workloads while exercising the
#: modulo-spacing path.
INTERVALS = [1, 7, 64, None]

#: One trap-free reconverging workload and one trap-enabled stencil:
#: together they exercise the early exit, the golden trap probe, and
#: plain prefix-skip restores.
BENCHMARKS = ["kmeans", "hotspot"]

RUNS = 12


def _make_runner(name, interval="off"):
    if interval == "off":
        ff = FastForwardConfig(enabled=False)
    else:
        ff = FastForwardConfig(interval=interval)
    runner = CampaignRunner(make_workload(name, scale="tiny", seed=11),
                            seed=11, fastforward=ff)
    runner.golden()
    return runner


@pytest.fixture(scope="module")
def reference(wa_models, ia_model, da_model):
    """Full-replay signatures: {benchmark: {(model, point, i): sig}}."""
    out = {}
    for name in BENCHMARKS:
        runner = _make_runner(name, interval="off")
        assert runner.golden().snapshots is None
        sigs = {}
        for model in (wa_models[name], ia_model, da_model):
            for point in POINTS:
                for i in range(RUNS):
                    execution = runner.execute_run(model, point, i)
                    sigs[(model.name, point.name, i)] = _signature(execution)
        out[name] = sigs
    return out


def _signature(execution):
    """Everything observable about one run except wall-clock timing."""
    return (
        execution.outcome,
        execution.injected,
        execution.uarch_masked,
        execution.unexpected,
    )


def _magnitude(runner, model, point, run_index):
    """A run's SDC magnitude through the replay path (None if no SDC)."""
    record = RunRecord(runner.workload.name, model.name, point.name,
                       run_index, outcome="")
    return Replayer(runner, model).replay(record).sdc_magnitude


@pytest.mark.parametrize("interval", INTERVALS,
                         ids=lambda i: "inf" if i is None else str(i))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_outcomes_bit_identical(name, interval, reference,
                                wa_models, ia_model, da_model):
    """Fast-forwarded outcomes == full replay, run by run, all models."""
    runner = _make_runner(name, interval=interval)
    snapshots = runner.golden().snapshots
    assert snapshots is not None
    restored = 0
    for model in (wa_models[name], ia_model, da_model):
        for point in POINTS:
            for i in range(RUNS):
                execution = runner.execute_run(model, point, i)
                expected = reference[name][(model.name, point.name, i)]
                assert _signature(execution) == expected, (
                    f"{name} interval={interval} {model.name} "
                    f"{point.name} run {i}"
                )
                if execution.fastforward:
                    restored += 1
    # Every corrupted run went through the snapshot service.
    assert restored > 0


@pytest.mark.parametrize("interval", INTERVALS,
                         ids=lambda i: "inf" if i is None else str(i))
def test_sdc_magnitudes_bit_identical(interval, wa_models):
    """SDC relative-error magnitudes match full replay exactly (kmeans
    WA produces genuine SDCs at tiny scale)."""
    name = "kmeans"
    model = wa_models[name]
    full = _make_runner(name, interval="off")
    runner = _make_runner(name, interval=interval)
    magnitudes = []
    for point in POINTS:
        for i in range(RUNS):
            expected = _magnitude(full, model, point, i)
            assert _magnitude(runner, model, point, i) == expected
            if expected is not None:
                magnitudes.append(expected)
    assert magnitudes, "campaign produced no SDCs to compare"


def _canonical_journal(path):
    """Journal lines with wall-clock noise removed, order-normalized.

    Pool workers complete out of order, so run lines are keyed and
    sorted; wall_ms is the only field allowed to differ between a
    fast-forwarded and a full-replay campaign (the per-line crc covers
    it, so it goes too).
    """
    meta, runs, cells, errors = None, [], [], []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        kind = event.pop("type")
        event.pop("crc", None)
        if kind == "meta":
            meta = event
        elif kind == "run":
            event.pop("wall_ms", None)
            runs.append(event)
        elif kind == "cell":
            cells.append(event)
        else:
            errors.append(event)
    runs.sort(key=lambda e: (e["model"], e["point"], e["run_index"]))
    return {"meta": meta, "runs": runs, "cells": cells, "errors": errors}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_journals_and_avm_bit_identical(tmp_path, name, workers,
                                        wa_models, ia_model):
    """Executor campaigns (serial and pooled) journal identically and
    produce identical AVM tables with fast-forward on and off."""
    journals = {}
    avm = {}
    for label, interval in (("full", "off"), ("fast", 7)):
        runner = _make_runner(name, interval=interval)
        path = tmp_path / f"{name}-{label}-{workers}.jsonl"
        config = ExecutorConfig(workers=workers, journal_path=str(path))
        results = []
        with CampaignExecutor(runner, config=config) as executor:
            for model in (wa_models[name], ia_model):
                for point in POINTS:
                    results.append(
                        executor.run_cell(model, point, runs=RUNS))
        journals[label] = _canonical_journal(path)
        avm[label] = {(r.model, r.point): (r.avm, r.counts.counts)
                      for r in results}
        assert not any(r.degraded for r in results)
    assert journals["fast"] == journals["full"]
    assert avm["fast"] == avm["full"]


def test_golden_pass_executes_exactly_once(wa_models, monkeypatch):
    """The fault-free pass runs once per campaign: the snapshot store's
    build is the only golden execution, and no injection run re-runs a
    fault-free pass (golden output reuse covers Masked classification)."""
    from repro.campaign import fastforward as ff_mod

    builds = []
    original_build = ff_mod.SnapshotStore.build

    def counting_build(self, workload, ctx, trap_probe=None):
        builds.append(workload.name)
        return original_build(self, workload, ctx, trap_probe=trap_probe)

    monkeypatch.setattr(ff_mod.SnapshotStore, "build", counting_build)

    workload = make_workload("kmeans", scale="tiny", seed=11)
    full_runs = []
    original_run = type(workload).run

    def counting_run(self, ctx):
        full_runs.append(self.name)
        return original_run(self, ctx)

    monkeypatch.setattr(type(workload), "run", counting_run)

    runner = CampaignRunner(workload, seed=11)
    with CampaignExecutor(runner) as executor:
        for point in POINTS:
            executor.run_cell(wa_models["kmeans"], point, runs=RUNS)
    assert builds == ["kmeans"]
    assert full_runs == []  # monolithic run() never invoked mid-campaign
