"""Paper-fidelity pin: a tiny seeded fig9/AVM campaign vs committed golden.

A deliberately small but end-to-end campaign — two benchmarks, three
models, both VR points — whose fig9 outcome distributions and Section
V.C AVM analysis are pinned to a committed JSON artifact with *exact*
equality (floats round-trip exactly through JSON).  The campaign runs
twice, fast-forward on and off: both must equal the committed numbers,
so the committed artifact doubles as a differential witness that the
snapshot engine does not move any published figure.

Regenerate deliberately after an intentional semantic change with:

    REGEN_PAPER_FIDELITY=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_paper_fidelity.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.campaign.fastforward import FastForwardConfig
from repro.campaign.runner import CampaignRunner
from repro.experiments import avm_analysis, fig9_outcomes
from repro.experiments.context import ExperimentContext
from repro.workloads import make_workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_fidelity_tiny.json"

BENCHMARKS = ("kmeans", "sobel")
SCALE = "tiny"
SEED = 11
SAMPLES = 20_000
RUNS = 16


@pytest.fixture(scope="module")
def context():
    return ExperimentContext.create(
        scale=SCALE, seed=SEED, characterization_samples=SAMPLES,
        benchmarks=BENCHMARKS,
    )


def _with_fastforward(context, fastforward):
    """The same experiment context with differently configured runners.

    Models, profiles and points are shared (characterisation is
    identical either way); only the campaign runners change, which is
    exactly the surface fast-forward touches.
    """
    runners = {}
    for name in context.benchmarks:
        runner = CampaignRunner(
            make_workload(name, scale=context.scale, seed=context.seed),
            seed=context.seed, fastforward=fastforward,
        )
        runner.golden()
        runners[name] = runner
    return ExperimentContext(
        scale=context.scale, seed=context.seed, points=context.points,
        fpu=context.fpu, runners=runners, profiles=context.profiles,
        da=context.da, ia=context.ia, wa=context.wa,
        pipeline=context.pipeline,
    )


def _capture(context):
    """The pinned artifact: fig9 outcome counts + AVM analysis, as JSON."""
    fig9 = fig9_outcomes.run(context=context, runs=RUNS)
    avm = avm_analysis.run(context=context,
                           campaign_results=fig9.results)
    cells = []
    for result in fig9.results:
        cells.append({
            "workload": result.workload,
            "model": result.model,
            "point": result.point,
            "counts": {o.value: n for o, n in result.counts.counts.items()},
            "avm": result.avm,
            "error_ratio": result.error_ratio,
            "uarch_masked": result.uarch_masked,
            "runs_without_injection": result.runs_without_injection,
        })
    return {
        "benchmarks": list(BENCHMARKS),
        "scale": SCALE,
        "seed": SEED,
        "runs": RUNS,
        "cells": cells,
        "avm_table": [
            {"workload": w, "model": m, "point": p, "avm": value}
            for (w, m, p), value in sorted(avm.avm_table.items())
        ],
        "divergence": dict(sorted(avm.divergence.items())),
        "vmin": [
            {"benchmark": c.benchmark, "model": c.model,
             "point": c.point.name,
             "power_saving": c.power_saving,
             "energy_saving": c.energy_saving}
            for c in avm.vmin
        ],
        "mitigation": {name: list(entry)
                       for name, entry in sorted(avm.mitigation.items())},
    }


def _roundtrip(data):
    return json.loads(json.dumps(data))


def test_sharded_campaign_matches_committed_golden(context, tmp_path):
    """`--shards 3` fidelity: the sharded, merged campaigns reproduce
    the committed single-process golden exactly.

    Each benchmark runs as a 3-shard campaign over a shared artifact
    store; the merged journals are reconstructed into results and fed
    through the same AVM analysis, and every pinned number — per-cell
    outcome counts, AVMs, the AVM table, divergence, Vmin and
    mitigation — must equal the golden JSON byte-for-byte.
    """
    from repro.artifacts import ArtifactStore
    from repro.campaign.shard import CampaignSpec, ShardCoordinator
    from repro.observe.html_report import load_campaign_results

    store = ArtifactStore.local(tmp_path / "store")
    results = []
    for name in context.benchmarks:
        models = context.models_for(name)
        spec = CampaignSpec(
            campaign_id=f"golden-{name}",
            benchmark=name,
            scale=SCALE,
            seed=SEED,
            runs=RUNS,
            shards=3,
            points=tuple(CampaignSpec.point_dict(p)
                         for p in context.points),
            models=tuple(m.name for m in models),
            fastforward=FastForwardConfig(enabled=False).to_dict(),
        )
        coordinator = ShardCoordinator.create(store, spec, models)
        coordinator.run_inline()
        merged = tmp_path / f"{name}.jsonl"
        coordinator.merge(merged)
        results.extend(load_campaign_results(merged))

    golden = json.loads(GOLDEN_PATH.read_text())
    by_cell = {(c["workload"], c["model"], c["point"]): c
               for c in golden["cells"]}
    assert len(results) == len(by_cell)
    for result in results:
        cell = by_cell[(result.workload, result.model, result.point)]
        counts = {o.value: n for o, n in result.counts.counts.items()}
        assert counts == cell["counts"], (result.workload, result.model,
                                          result.point)
        assert _roundtrip(result.avm) == cell["avm"]
        assert _roundtrip(result.error_ratio) == cell["error_ratio"]
        assert result.uarch_masked == cell["uarch_masked"]
        assert (result.runs_without_injection
                == cell["runs_without_injection"])

    analysis = avm_analysis.run(context=context, campaign_results=results)
    assert _roundtrip(
        [{"workload": w, "model": m, "point": p, "avm": value}
         for (w, m, p), value in sorted(analysis.avm_table.items())]
    ) == golden["avm_table"]
    assert _roundtrip(dict(sorted(analysis.divergence.items()))) == \
        golden["divergence"]
    assert _roundtrip(
        [{"benchmark": c.benchmark, "model": c.model,
          "point": c.point.name, "power_saving": c.power_saving,
          "energy_saving": c.energy_saving} for c in analysis.vmin]
    ) == golden["vmin"]
    assert _roundtrip(
        {name: list(entry)
         for name, entry in sorted(analysis.mitigation.items())}
    ) == golden["mitigation"]


def test_fig9_and_avm_match_committed_golden(context):
    captured = {
        "fast-forward on": _capture(
            _with_fastforward(context, None)),
        "fast-forward off": _capture(
            _with_fastforward(context, FastForwardConfig(enabled=False))),
    }
    if os.environ.get("REGEN_PAPER_FIDELITY"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(captured["fast-forward on"], indent=2,
                       sort_keys=True) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    for label, data in captured.items():
        assert _roundtrip(data) == golden, (
            f"paper-fidelity campaign ({label}) diverged from the "
            f"committed golden {GOLDEN_PATH.name}; if the change is "
            f"intentional, regenerate with REGEN_PAPER_FIDELITY=1"
        )
