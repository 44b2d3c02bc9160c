#!/usr/bin/env python
"""Benchmark the DTA -> model -> campaign pipeline; emit BENCH_campaign.json.

Times the paper's two phases with telemetry enabled:

1. *micro*: gate-level DTA on a ripple adder, exercising the eventsim
   layer in isolation,
2. *golden*: workload construction + golden runs per benchmark,
3. *characterize*: serial reference model development (WA per benchmark
   plus the shared IA and DA models — the FPU DTA layer),
4. *characterize_parallel*: the same model set through the parallel,
   content-addressed characterization pipeline (cold cache),
5. *characterize_warm*: the pipeline again on the warm cache (every
   model is a cache hit; measures the near-zero-cost rerun),
5b. *characterize_gate* / *characterize_bitparallel*: gate-level
   characterisation of one shared random vector stream through the
   event-driven reference and the levelized bit-parallel engine —
   the wall ratio is the ``backend`` block's speedup and the verdicts
   must agree exactly,
6. *campaign*: a small injection campaign per benchmark through the
   fault-tolerant executor, full replay (snapshots off),
7. *campaign_journal*: the identical campaign with a CRC-checksummed
   run journal attached under the configured ``--fsync`` policy —
   measuring the durability tax of crash-consistent journaling,
8. *campaign_fastforward*: the identical campaign with the checkpointed
   fast-forward engine on — same seeds, same cells, bit-identical
   outcomes — measuring the snapshot restore + suffix-replay speedup,
9. *campaign_observed*: the identical campaign with the full live
   observability stack attached — the campaign state with its
   CI-trajectory view in the executor's monitor slot, the HTTP control
   plane serving /metrics, /status and /trajectory on an ephemeral
   port, and a campaign trace context stamping spans — measuring the
   cost of watching a campaign (gated within a few percent in
   bench_check),
10. *campaign_adaptive*: the identical cells under the sequential
    CI-target stopping rule — each cell halts at the first predeclared
    look whose anytime-valid interval is tight enough, so the phase
    measures the runs-saved fraction and proves the early verdicts
    agree with fixed-N (every fixed AVM inside the adaptive stop
    interval; gated in bench_check).

The campaign phases run at their own ``--campaign-scale`` (default
``small``): guest execution has to dominate the per-run planning
overhead (which is identical on both sides) for the fast-forward ratio
to measure the engine rather than the scheduler, while the
characterization phases stay at ``--scale`` where the DTA layer
dominates.

The emitted JSON carries per-phase wall times, per-layer
(eventsim/dta/executor) timings pulled from the telemetry collector, a
``pipeline`` block (speedup, warm fraction, cache hit/miss counts), a
``journal`` block (fsync policy, overhead fraction vs the unjournaled
campaign, record/fsync counts) and a ``fastforward`` block (campaign
speedup, snapshot-store stats, restore / early-exit / skipped-op
counters), so `BENCH_campaign.json` accumulates
a comparable perf trajectory across commits.  `--validate FILE` checks
an existing file against the schema (used by the CI bench smoke job)
and exits non-zero on violations.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import telemetry                              # noqa: E402
from repro.campaign.adaptive import AdaptiveConfig       # noqa: E402
from repro.campaign.executor import (                    # noqa: E402
    CampaignExecutor,
    ExecutorConfig,
)
from repro.campaign.fastforward import FastForwardConfig  # noqa: E402
from repro.campaign.runner import CampaignRunner         # noqa: E402
from repro.circuit.builder import build_adder            # noqa: E402
from repro.circuit.dta import DynamicTimingAnalysis      # noqa: E402
from repro.circuit.liberty import VR15, VR20             # noqa: E402
from repro.circuit.sta import StaticTimingAnalysis       # noqa: E402
from repro.errors import (                               # noqa: E402
    CharacterizationPipeline,
    PipelineConfig,
    characterize_da,
    characterize_gate,
    characterize_ia,
    characterize_wa,
    random_vector_words,
)
from repro.fpu.unit import DEFAULT_DTA_BATCH             # noqa: E402
from repro.utils.rng import RngStream                    # noqa: E402
from repro.workloads import make_workload                # noqa: E402

#: v2 splits golden runs out of the characterize phase and adds the
#: characterize_parallel / characterize_warm phases plus the pipeline
#: speedup block.  v3 adds the campaign_fastforward phase (the same
#: campaign through the snapshot/fast-forward engine) and the
#: fastforward block.  v4 adds the campaign_journal phase (the same
#: campaign with the CRC-checksummed run journal attached) and the
#: journal overhead block.  v5 adds the characterize_gate /
#: characterize_bitparallel phases (gate-level characterisation of the
#: same vector stream through the event-driven reference and the
#: bit-parallel engine) and the backend block (speedup + verdict
#: equality).  v6 adds the campaign_observed phase (the same campaign
#: with the live observability stack and HTTP control plane attached)
#: and the observability block (overhead
#: fraction vs the unobserved campaign, scrape liveness, trajectory
#: point count).  v7 adds the campaign_adaptive phase (the same cells
#: under the sequential CI-target stopping rule) and the adaptive block
#: (runs saved at equal verdicts: every fixed-N AVM must land inside
#: the adaptive stop interval).
SCHEMA_VERSION = 7

PHASES = ("golden", "characterize", "characterize_parallel",
          "characterize_warm", "characterize_gate",
          "characterize_bitparallel", "campaign", "campaign_journal",
          "campaign_fastforward", "campaign_observed",
          "campaign_adaptive")

DEFAULT_BENCHMARKS = ("kmeans", "hotspot")


def _stat(snapshot, name):
    """One stats entry of a telemetry snapshot, zeroed when absent."""
    stat = snapshot["stats"].get(name)
    if stat is None:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
    return stat


def bench_micro_dta(vectors: int, seed: int) -> dict:
    """Gate-level DTA on a 16-bit adder: the eventsim-layer microbench.

    The vector stream is packed into per-net transition words once, up
    front, and analysed through the batch API — the timed region holds
    only engine work, no per-vector ``Dict[str, int]`` construction.
    """
    netlist = build_adder(16)
    clock = StaticTimingAnalysis(netlist).critical_delay()
    dta = DynamicTimingAnalysis(netlist, clock_ps=clock, delay_factor=1.3)
    rng = RngStream(seed, "bench-micro")
    words = random_vector_words(netlist, vectors + 1, rng)
    window = (1 << vectors) - 1
    prev_words = [w & window for w in words]
    cur_words = [w >> 1 for w in words]
    start = time.perf_counter()
    outcome = dta.analyze_batch(prev_words, cur_words, count=vectors)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "transitions": len(outcome),
            "faulty": outcome.error_count, "clock_ps": clock}


def bench_gate_backends(samples: int, seed: int, phases: dict) -> dict:
    """Gate-level characterisation, event vs bit-parallel, same stream.

    Both engines consume the byte-identical packed vector stream (same
    netlist, seed, clock and delay factor), so the wall-time ratio is a
    pure engine speedup and the verdicts must agree exactly — the
    equality bit lands in the emitted block and is gated in CI via
    ``bench.py --validate``.
    """
    netlist = build_adder(16)
    clock = StaticTimingAnalysis(netlist).critical_delay()
    results = {}
    for backend in ("event", "bitparallel"):
        start = time.perf_counter()
        results[backend] = characterize_gate(
            netlist, clock_ps=clock, delay_factor=1.3,
            samples=samples, seed=seed, backend=backend)
        wall = time.perf_counter() - start
        phase = ("characterize_gate" if backend == "event"
                 else "characterize_bitparallel")
        phases[phase]["wall_s"] = wall
        phases[phase]["per_benchmark"]["adder16"] = wall
    event, bitparallel = results["event"], results["bitparallel"]
    event_wall = phases["characterize_gate"]["wall_s"]
    bp_wall = phases["characterize_bitparallel"]["wall_s"]
    return {
        "netlist": netlist.name,
        "samples": samples,
        "clock_ps": clock,
        "delay_factor": 1.3,
        "event_wall_s": event_wall,
        "bitparallel_wall_s": bp_wall,
        "speedup": (event_wall / bp_wall) if bp_wall > 0 else None,
        "verdicts_equal": bool(
            event.faulty == bitparallel.faulty
            and (event.bit_counts == bitparallel.bit_counts).all()
        ),
        "faulty": int(event.faulty),
    }


def _characterize_models(args, profiles, points, phase: dict,
                         pipeline=None) -> dict:
    """One full model-development pass: WA per benchmark + IA + DA.

    ``pipeline=None`` is the serial reference; otherwise the parallel,
    cache-aware engine runs the identical model set.  Per-model wall
    times land in ``phase["per_benchmark"]`` (IA/DA under the ``ia`` /
    ``da`` pseudo-entries).
    """
    models = {}
    for name, profile in profiles.items():
        start = time.perf_counter()
        models[name] = characterize_wa(profile, points,
                                       max_samples=args.samples,
                                       pipeline=pipeline)
        phase["per_benchmark"][name] = time.perf_counter() - start
    start = time.perf_counter()
    characterize_ia(points, samples_per_op=args.ia_samples,
                    seed=args.seed, pipeline=pipeline)
    phase["per_benchmark"]["ia"] = time.perf_counter() - start
    start = time.perf_counter()
    characterize_da(list(profiles.values()), points,
                    sample_per_point=args.ia_samples, seed=args.seed,
                    pipeline=pipeline)
    phase["per_benchmark"]["da"] = time.perf_counter() - start
    phase["wall_s"] = sum(phase["per_benchmark"].values())
    return models


def bench_pipeline(args) -> dict:
    telemetry.enable()
    points = [VR15, VR20]
    phases = {name: {"wall_s": 0.0, "per_benchmark": {}}
              for name in PHASES}

    micro = bench_micro_dta(args.micro_vectors, args.seed)
    backend_block = bench_gate_backends(args.gate_samples, args.seed,
                                        phases)

    # Full-replay reference runners: the golden and campaign phases keep
    # their historical (snapshots-off) meaning.
    runners = {}
    profiles = {}
    for name in args.benchmarks:
        start = time.perf_counter()
        workload = make_workload(name, scale=args.scale, seed=args.seed)
        runner = CampaignRunner(
            workload, seed=args.seed,
            fastforward=FastForwardConfig(enabled=False),
        )
        profiles[name] = runner.golden().profile
        runners[name] = runner
        phases["golden"]["per_benchmark"][name] = (
            time.perf_counter() - start
        )
    phases["golden"]["wall_s"] = sum(
        phases["golden"]["per_benchmark"].values()
    )

    models = _characterize_models(args, profiles, points,
                                  phases["characterize"])

    with tempfile.TemporaryDirectory(prefix="bench-mcache-") as tmp:
        cold = CharacterizationPipeline(PipelineConfig(
            workers=args.pipeline_workers, chunk=DEFAULT_DTA_BATCH,
            cache_dir=Path(tmp), use_cache=True))
        _characterize_models(args, profiles, points,
                             phases["characterize_parallel"], pipeline=cold)
        warm = CharacterizationPipeline(PipelineConfig(
            workers=args.pipeline_workers, chunk=DEFAULT_DTA_BATCH,
            cache_dir=Path(tmp), use_cache=True))
        _characterize_models(args, profiles, points,
                             phases["characterize_warm"], pipeline=warm)
        cache_stats = {"cold": cold.cache.stats(),
                       "warm": warm.cache.stats()}

    # Campaign phases run at their own scale so guest execution (the
    # part fast-forward accelerates) dominates the per-run planning
    # overhead shared by both sides.  Golden builds happen outside the
    # timed region on both sides.  The fixed-N AVMs feed the adaptive
    # phase's verdict-equality check.
    fixed_avms = {}
    for name in args.benchmarks:
        workload = make_workload(name, scale=args.campaign_scale,
                                 seed=args.seed)
        runner = CampaignRunner(
            workload, seed=args.seed,
            fastforward=FastForwardConfig(enabled=False),
        )
        runner.golden()
        start = time.perf_counter()
        config = ExecutorConfig(workers=args.workers)
        with CampaignExecutor(runner, config=config) as executor:
            for point in points:
                result = executor.run_cell(models[name], point,
                                           runs=args.runs)
                fixed_avms[f"{name}/{point.name}"] = result.avm
        phases["campaign"]["per_benchmark"][name] = (
            time.perf_counter() - start
        )
    phases["campaign"]["wall_s"] = sum(
        phases["campaign"]["per_benchmark"].values()
    )

    # The identical campaign with the run journal attached: measures the
    # durability tax of crash-consistent journaling under the configured
    # fsync policy (group commit by default).  Same seeds, same cells —
    # the wall-time ratio to the unjournaled campaign phase is a pure
    # journaling overhead, gated candidate-only in bench_check.
    journal_stats = {"records": 0, "fsyncs": 0, "write_errors": 0,
                     "crc_failures": 0}
    with tempfile.TemporaryDirectory(prefix="bench-journal-") as tmp:
        for name in args.benchmarks:
            workload = make_workload(name, scale=args.campaign_scale,
                                     seed=args.seed)
            runner = CampaignRunner(
                workload, seed=args.seed,
                fastforward=FastForwardConfig(enabled=False),
            )
            runner.golden()
            start = time.perf_counter()
            config = ExecutorConfig(
                workers=args.workers, fsync=args.fsync,
                journal_path=str(Path(tmp) / f"{name}.jsonl"))
            with CampaignExecutor(runner, config=config) as executor:
                for point in points:
                    executor.run_cell(models[name], point, runs=args.runs)
                for key, value in executor.journal.stats.items():
                    journal_stats[key] = journal_stats.get(key, 0) + value
            phases["campaign_journal"]["per_benchmark"][name] = (
                time.perf_counter() - start
            )
    phases["campaign_journal"]["wall_s"] = sum(
        phases["campaign_journal"]["per_benchmark"].values()
    )

    # The identical campaign, fast-forwarded.  The snapshot-building
    # golden run is timed separately (it is a once-per-campaign cost,
    # symmetric with the reference runners' golden phase), so the phase
    # itself measures restore + suffix replay per run.
    ff_build_s = 0.0
    ff_stores = []
    ff_counters = {"restores": 0, "early_exits": 0,
                   "ops_skipped": 0, "ops_replayed": 0}
    for name in args.benchmarks:
        workload = make_workload(name, scale=args.campaign_scale,
                                 seed=args.seed)
        runner = CampaignRunner(
            workload, seed=args.seed,
            fastforward=FastForwardConfig(interval=args.snapshot_interval),
        )
        start = time.perf_counter()
        golden = runner.golden()
        ff_build_s += time.perf_counter() - start
        if golden.snapshots is not None:
            ff_stores.append(golden.snapshots.stats())
        start = time.perf_counter()
        config = ExecutorConfig(workers=args.workers)
        with CampaignExecutor(runner, config=config) as executor:
            for point in points:
                result = executor.run_cell(models[name], point,
                                           runs=args.runs)
                stats = result.stats
                ff_counters["restores"] += stats.ff_restores
                ff_counters["early_exits"] += stats.ff_early_exits
                ff_counters["ops_skipped"] += stats.ff_ops_skipped
                ff_counters["ops_replayed"] += stats.ff_ops_replayed
        phases["campaign_fastforward"]["per_benchmark"][name] = (
            time.perf_counter() - start
        )
    phases["campaign_fastforward"]["wall_s"] = sum(
        phases["campaign_fastforward"]["per_benchmark"].values()
    )

    # The identical (full-replay) campaign with the live observability
    # stack attached: one campaign state in the executor's monitor slot
    # with the CI-trajectory view, the HTTP control plane serving
    # /metrics, /status and /trajectory on an ephemeral port, and a
    # campaign trace context stamping spans.  Same seeds, same cells —
    # the wall ratio to the plain campaign phase is the pure cost of
    # watching, gated in bench_check.
    from urllib.request import urlopen

    from repro.observe import CampaignState, TrajectoryRecorder
    from repro.observe.httpd import ControlPlane

    trajectory = TrajectoryRecorder()
    state = CampaignState("bench", args.seed,
                          cells_total=len(args.benchmarks) * len(points),
                          views=[trajectory])
    scrape_ok = False
    with ControlPlane(state, trajectory.points, port=0) as plane:
        telemetry.set_trace_context(
            telemetry.TraceContext(campaign_id=f"bench-s{args.seed}"))
        try:
            for name in args.benchmarks:
                workload = make_workload(name, scale=args.campaign_scale,
                                         seed=args.seed)
                runner = CampaignRunner(
                    workload, seed=args.seed,
                    fastforward=FastForwardConfig(enabled=False),
                )
                runner.golden()
                start = time.perf_counter()
                config = ExecutorConfig(workers=args.workers)
                with CampaignExecutor(runner, config=config,
                                      monitor=state) as executor:
                    for point in points:
                        executor.run_cell(models[name], point,
                                          runs=args.runs)
                phases["campaign_observed"]["per_benchmark"][name] = (
                    time.perf_counter() - start
                )
        finally:
            telemetry.clear_trace_context()
        try:
            with urlopen(f"http://127.0.0.1:{plane.port}/metrics",
                         timeout=5) as resp:
                scrape_ok = b"repro_campaign_runs_total" in resp.read()
        except OSError:
            scrape_ok = False
    phases["campaign_observed"]["wall_s"] = sum(
        phases["campaign_observed"]["per_benchmark"].values()
    )

    # The identical cells under the sequential CI-target stopping rule:
    # same seeds, same RNG substreams, so every adaptive cell is an
    # exact prefix of the fixed-N campaign above.  The block records the
    # runs saved and checks the verdicts agree — each fixed-N AVM must
    # land inside the adaptive stop interval (gated in bench_check).
    adaptive_config = AdaptiveConfig(ci_target=args.adaptive_ci_target,
                                     min_runs=args.adaptive_min_runs)
    adaptive_cells = []
    for name in args.benchmarks:
        workload = make_workload(name, scale=args.campaign_scale,
                                 seed=args.seed)
        runner = CampaignRunner(
            workload, seed=args.seed,
            fastforward=FastForwardConfig(enabled=False),
        )
        runner.golden()
        start = time.perf_counter()
        config = ExecutorConfig(workers=args.workers)
        with CampaignExecutor(runner, config=config) as executor:
            for point in points:
                result = executor.run_cell(models[name], point,
                                           runs=args.runs,
                                           adaptive=adaptive_config)
                stop = result.stats.stop
                cell = f"{name}/{point.name}"
                fixed = fixed_avms[cell]
                entry = {
                    "cell": cell,
                    "rule": stop.rule if stop else "budget",
                    "n": int(stop.n) if stop else args.runs,
                    "saved": int(stop.runs_saved) if stop else 0,
                    "avm": result.avm,
                    "ci_lo": stop.ci_lo if stop else 0.0,
                    "ci_hi": stop.ci_hi if stop else 1.0,
                    "fixed_avm": fixed,
                }
                entry["verdict_equal"] = bool(
                    entry["ci_lo"] <= fixed <= entry["ci_hi"])
                adaptive_cells.append(entry)
        phases["campaign_adaptive"]["per_benchmark"][name] = (
            time.perf_counter() - start
        )
    phases["campaign_adaptive"]["wall_s"] = sum(
        phases["campaign_adaptive"]["per_benchmark"].values()
    )
    adaptive_budget = args.runs * len(adaptive_cells)
    adaptive_executed = sum(c["n"] for c in adaptive_cells)
    adaptive_block = {
        "ci_target": args.adaptive_ci_target,
        "min_runs": args.adaptive_min_runs,
        "budget_runs": adaptive_budget,
        "executed_runs": adaptive_executed,
        "savings_fraction": ((adaptive_budget - adaptive_executed)
                             / adaptive_budget
                             if adaptive_budget > 0 else None),
        "verdicts_equal": all(c["verdict_equal"] for c in adaptive_cells),
        "cells": adaptive_cells,
    }

    snapshot = telemetry.snapshot()
    telemetry.disable()

    serial = phases["characterize"]["wall_s"]
    parallel = phases["characterize_parallel"]["wall_s"]
    warm_wall = phases["characterize_warm"]["wall_s"]
    pipeline_block = {
        "workers": args.pipeline_workers,
        "chunk": DEFAULT_DTA_BATCH,
        "speedup": (serial / parallel) if parallel > 0 else None,
        "warm_fraction": (warm_wall / serial) if serial > 0 else None,
        "cache": {
            "hit": cache_stats["cold"]["hit"] + cache_stats["warm"]["hit"],
            "miss": (cache_stats["cold"]["miss"]
                     + cache_stats["warm"]["miss"]),
            "invalid": (cache_stats["cold"]["invalid"]
                        + cache_stats["warm"]["invalid"]),
            "cold": cache_stats["cold"],
            "warm": cache_stats["warm"],
        },
    }

    campaign_wall = phases["campaign"]["wall_s"]
    journal_wall = phases["campaign_journal"]["wall_s"]
    journal_block = {
        "fsync": args.fsync,
        "overhead": ((journal_wall - campaign_wall) / campaign_wall
                     if campaign_wall > 0 else None),
        **journal_stats,
    }

    observed_wall = phases["campaign_observed"]["wall_s"]
    observability_block = {
        "overhead": ((observed_wall - campaign_wall) / campaign_wall
                     if campaign_wall > 0 else None),
        "scrape_ok": scrape_ok,
        "trajectory_points": len(trajectory.points),
        "runs_observed": state.snapshot().runs_done,
    }

    ff_wall = phases["campaign_fastforward"]["wall_s"]
    fastforward_block = {
        "interval": (args.snapshot_interval
                     if args.snapshot_interval is not None else "inf"),
        "speedup": (campaign_wall / ff_wall) if ff_wall > 0 else None,
        "golden_build_s": ff_build_s,
        **ff_counters,
        "stores": ff_stores,
    }

    counters = snapshot["counters"]
    layers = {
        "eventsim": {
            "wall_s": micro["wall_s"],
            "simulations": int(counters.get("eventsim.simulations", 0)),
            "events": int(counters.get("eventsim.events", 0)),
        },
        "dta": {
            "wall_s": _stat(snapshot, "fpu.dta")["total"],
            "batches": int(counters.get("fpu.dta.batches", 0)),
            "vectors": int(counters.get("fpu.dta.vectors", 0)),
        },
        "bitsim": {
            "wall_s": phases["characterize_bitparallel"]["wall_s"],
            "batches": int(counters.get("bitsim.batches", 0)),
            "lanes": int(counters.get("bitsim.lanes", 0)),
            "gate_evals": int(counters.get("bitsim.gate_evals", 0)),
        },
        "executor": {
            "wall_s": _stat(snapshot, "campaign.cell")["total"],
            "cells": int(counters.get("campaign.cells", 0)),
            "runs": int(counters.get("campaign.runs.executed", 0)),
            "run_ms": _stat(snapshot, "campaign.run_ms"),
        },
    }

    return {
        "bench": "repro-pipeline",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "scale": args.scale,
            "campaign_scale": args.campaign_scale,
            "seed": args.seed,
            "runs": args.runs,
            "samples": args.samples,
            "ia_samples": args.ia_samples,
            "micro_vectors": args.micro_vectors,
            "gate_samples": args.gate_samples,
            "workers": args.workers,
            "pipeline_workers": args.pipeline_workers,
            "benchmarks": list(args.benchmarks),
            "snapshot_interval": (args.snapshot_interval
                                  if args.snapshot_interval is not None
                                  else "inf"),
            "fsync": args.fsync,
            "adaptive_ci_target": args.adaptive_ci_target,
            "adaptive_min_runs": args.adaptive_min_runs,
        },
        "micro_dta": micro,
        "phases": phases,
        "backend": backend_block,
        "pipeline": pipeline_block,
        "journal": journal_block,
        "fastforward": fastforward_block,
        "observability": observability_block,
        "adaptive": adaptive_block,
        "layers": layers,
        "telemetry": snapshot,
    }


def validate(data) -> list:
    """Schema check; returns a list of violations (empty = valid)."""
    problems = []

    def need(container, key, kinds, where):
        if not isinstance(container, dict) or key not in container:
            problems.append(f"missing {where}.{key}")
            return None
        value = container[key]
        if not isinstance(value, kinds):
            problems.append(f"{where}.{key} has type "
                            f"{type(value).__name__}")
            return None
        return value

    if need(data, "bench", str, "$") != "repro-pipeline":
        problems.append("$.bench is not 'repro-pipeline'")
    if need(data, "schema_version", int, "$") != SCHEMA_VERSION:
        problems.append(f"$.schema_version is not {SCHEMA_VERSION}")
    need(data, "config", dict, "$")

    phases = need(data, "phases", dict, "$") or {}
    for phase in PHASES:
        entry = need(phases, phase, dict, "$.phases") or {}
        wall = need(entry, "wall_s", (int, float), f"$.phases.{phase}")
        if wall is not None and wall < 0:
            problems.append(f"$.phases.{phase}.wall_s is negative")
        need(entry, "per_benchmark", dict, f"$.phases.{phase}")

    backend = need(data, "backend", dict, "$") or {}
    need(backend, "netlist", str, "$.backend")
    need(backend, "samples", int, "$.backend")
    bp_speedup = need(backend, "speedup", (int, float), "$.backend")
    if bp_speedup is not None and bp_speedup <= 0:
        problems.append("$.backend.speedup is not positive")
    equal = need(backend, "verdicts_equal", bool, "$.backend")
    if equal is False:
        problems.append("$.backend.verdicts_equal is false: the "
                        "bit-parallel engine diverged from the event "
                        "reference on the shared vector stream")
    need(backend, "faulty", int, "$.backend")

    pipeline = need(data, "pipeline", dict, "$") or {}
    need(pipeline, "workers", int, "$.pipeline")
    need(pipeline, "chunk", int, "$.pipeline")
    speedup = need(pipeline, "speedup", (int, float), "$.pipeline")
    if speedup is not None and speedup <= 0:
        problems.append("$.pipeline.speedup is not positive")
    need(pipeline, "warm_fraction", (int, float), "$.pipeline")
    cache = need(pipeline, "cache", dict, "$.pipeline") or {}
    for key in ("hit", "miss", "invalid"):
        need(cache, key, int, "$.pipeline.cache")

    journal = need(data, "journal", dict, "$") or {}
    need(journal, "fsync", str, "$.journal")
    need(journal, "overhead", (int, float), "$.journal")
    for key in ("records", "fsyncs", "write_errors", "crc_failures"):
        need(journal, key, int, "$.journal")

    fastforward = need(data, "fastforward", dict, "$") or {}
    need(fastforward, "interval", (int, str), "$.fastforward")
    ff_speedup = need(fastforward, "speedup", (int, float), "$.fastforward")
    if ff_speedup is not None and ff_speedup <= 0:
        problems.append("$.fastforward.speedup is not positive")
    need(fastforward, "golden_build_s", (int, float), "$.fastforward")
    for key in ("restores", "early_exits", "ops_skipped", "ops_replayed"):
        need(fastforward, key, int, "$.fastforward")
    need(fastforward, "stores", list, "$.fastforward")

    adaptive = need(data, "adaptive", dict, "$") or {}
    need(adaptive, "ci_target", (int, float), "$.adaptive")
    need(adaptive, "min_runs", int, "$.adaptive")
    need(adaptive, "budget_runs", int, "$.adaptive")
    need(adaptive, "executed_runs", int, "$.adaptive")
    savings = need(adaptive, "savings_fraction", (int, float), "$.adaptive")
    if savings is not None and not 0.0 <= savings <= 1.0:
        problems.append("$.adaptive.savings_fraction is outside [0, 1]")
    verdicts = need(adaptive, "verdicts_equal", bool, "$.adaptive")
    if verdicts is False:
        problems.append("$.adaptive.verdicts_equal is false: a fixed-N "
                        "AVM fell outside its adaptive stop interval")
    cells = need(adaptive, "cells", list, "$.adaptive") or []
    for index, cell in enumerate(cells):
        for key in ("cell", "rule"):
            need(cell, key, str, f"$.adaptive.cells[{index}]")
        for key in ("n", "saved"):
            need(cell, key, int, f"$.adaptive.cells[{index}]")
        for key in ("avm", "ci_lo", "ci_hi", "fixed_avm"):
            need(cell, key, (int, float), f"$.adaptive.cells[{index}]")

    observability = need(data, "observability", dict, "$") or {}
    need(observability, "overhead", (int, float), "$.observability")
    scrape = need(observability, "scrape_ok", bool, "$.observability")
    if scrape is False:
        problems.append("$.observability.scrape_ok is false: the control "
                        "plane did not serve the documented metric series")
    need(observability, "trajectory_points", int, "$.observability")
    need(observability, "runs_observed", int, "$.observability")

    layers = need(data, "layers", dict, "$") or {}
    for layer in ("eventsim", "dta", "bitsim", "executor"):
        entry = need(layers, layer, dict, "$.layers") or {}
        need(entry, "wall_s", (int, float), f"$.layers.{layer}")
    for key in ("simulations", "events"):
        need(layers.get("eventsim", {}), key, int, "$.layers.eventsim")
    for key in ("batches", "vectors"):
        need(layers.get("dta", {}), key, int, "$.layers.dta")
    for key in ("batches", "lanes", "gate_evals"):
        need(layers.get("bitsim", {}), key, int, "$.layers.bitsim")
    for key in ("cells", "runs"):
        need(layers.get("executor", {}), key, int, "$.layers.executor")

    telemetry_block = need(data, "telemetry", dict, "$") or {}
    need(telemetry_block, "counters", dict, "$.telemetry")
    need(telemetry_block, "stats", dict, "$.telemetry")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the characterisation/campaign pipeline")
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "paper"])
    parser.add_argument("--campaign-scale", default="small",
                        choices=["tiny", "small", "paper"],
                        help="workload scale for the campaign phases "
                             "(larger than --scale so guest execution "
                             "dominates per-run planning overhead)")
    parser.add_argument("--runs", type=int, default=24,
                        help="injection runs per campaign cell")
    parser.add_argument("--samples", type=int, default=4000,
                        help="WA characterisation sample cap per type")
    parser.add_argument("--ia-samples", type=int, default=400_000,
                        help="IA/DA characterisation samples (sized so "
                             "the DTA work dominates the phase)")
    parser.add_argument("--micro-vectors", type=int, default=64,
                        help="gate-level DTA transitions in the microbench")
    parser.add_argument("--gate-samples", type=int, default=2048,
                        help="vector transitions in the gate-backend "
                             "comparison (event vs bit-parallel on the "
                             "identical stream)")
    parser.add_argument("--workers", type=int, default=0,
                        help="executor worker processes (0 = serial)")
    parser.add_argument("--pipeline-workers", type=int, default=4,
                        help="characterization pipeline worker processes")
    parser.add_argument("--snapshot-interval", default="1",
                        help="fast-forward snapshot spacing in step "
                             "boundaries ('inf' = initial snapshot only; "
                             "default 1 = every boundary, the densest "
                             "and fastest configuration)")
    parser.add_argument("--fsync", default="group",
                        choices=["group", "always", "close"],
                        help="journal fsync policy for the "
                             "campaign_journal phase (default: the "
                             "executor's group-commit default)")
    parser.add_argument("--adaptive-ci-target", type=float, default=0.3,
                        help="adaptive stop half-width for the "
                             "campaign_adaptive phase (loose enough for "
                             "the small bench cells to converge)")
    parser.add_argument("--adaptive-min-runs", type=int, default=6,
                        help="adaptive floor: never stop a bench cell "
                             "below this many runs")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
                        help="comma-separated benchmark list")
    parser.add_argument("--output", default="BENCH_campaign.json")
    parser.add_argument("--cache-stats", metavar="FILE", default=None,
                        help="also write the pipeline block (speedup, "
                             "cache hit/miss) to this JSON file")
    parser.add_argument("--validate", metavar="FILE", default=None,
                        help="validate an existing bench file and exit")
    args = parser.parse_args(argv)

    if args.validate:
        problems = validate(json.loads(Path(args.validate).read_text()))
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        print(f"{args.validate}: "
              + ("INVALID" if problems else "valid"))
        return 1 if problems else 0

    args.benchmarks = tuple(
        part.strip() for part in args.benchmarks.split(",") if part.strip()
    )
    args.snapshot_interval = (None if args.snapshot_interval == "inf"
                              else int(args.snapshot_interval))
    data = bench_pipeline(args)
    problems = validate(data)
    if problems:  # pragma: no cover - self-check
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1

    out = Path(args.output)
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")
    if args.cache_stats:
        stats_out = Path(args.cache_stats)
        stats_out.write_text(json.dumps(data["pipeline"], indent=2) + "\n")
        print(f"wrote {stats_out}")
    print(f"  micro DTA : {data['micro_dta']['wall_s']:8.3f}s "
          f"({data['micro_dta']['transitions']} transitions)")
    for phase in PHASES:
        print(f"  {phase:<21}: {data['phases'][phase]['wall_s']:8.3f}s")
    backend = data["backend"]
    print(f"  bitsim speedup        : {backend['speedup']:.2f}x "
          f"({backend['samples']} transitions on {backend['netlist']}, "
          f"verdicts {'equal' if backend['verdicts_equal'] else 'DIVERGED'})")
    pipe = data["pipeline"]
    print(f"  pipeline speedup      : {pipe['speedup']:.2f}x "
          f"(workers={pipe['workers']}, chunk={pipe['chunk']})")
    print(f"  warm-cache fraction   : {pipe['warm_fraction']:.3f} "
          f"(cache: {pipe['cache']['hit']} hit / "
          f"{pipe['cache']['miss']} miss)")
    journal = data["journal"]
    print(f"  journal overhead      : {journal['overhead']:+.1%} "
          f"(fsync={journal['fsync']}, {journal['records']} records, "
          f"{journal['fsyncs']} fsyncs)")
    ff = data["fastforward"]
    print(f"  fast-forward speedup  : {ff['speedup']:.2f}x "
          f"(interval={ff['interval']}, {ff['restores']} restores, "
          f"{ff['early_exits']} early exits, "
          f"{ff['ops_skipped']} ops skipped)")
    obs = data["observability"]
    print(f"  observability overhead: {obs['overhead']:+.1%} "
          f"(scrape {'ok' if obs['scrape_ok'] else 'FAILED'}, "
          f"{obs['trajectory_points']} trajectory points, "
          f"{obs['runs_observed']} runs observed)")
    adaptive = data["adaptive"]
    print(f"  adaptive sampling     : "
          f"{adaptive['executed_runs']}/{adaptive['budget_runs']} runs "
          f"({adaptive['savings_fraction']:.0%} saved at ±"
          f"{adaptive['ci_target']}, verdicts "
          f"{'equal' if adaptive['verdicts_equal'] else 'DIVERGED'})")
    for layer in ("eventsim", "dta", "bitsim", "executor"):
        print(f"  [{layer}] {data['layers'][layer]['wall_s']:8.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
