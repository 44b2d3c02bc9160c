"""Command-line interface: ``python -m repro <command>``.

Exposes the toolflow of Fig. 2 as commands:

- ``characterize`` — model-development phase: build and save DA/IA/WA
  artifacts for a benchmark,
- ``campaign``     — application-evaluation phase: run an injection
  campaign from a saved (or freshly built) model, optionally with a
  live terminal monitor (``--monitor``).  ``--store DIR`` selects
  store-backed execution: the cells run as work items of an artifact
  store, inline or one process per shard (``--shard-procs``, which
  rejects ``--trace``/``--telemetry``/``--monitor``/``--trajectory``
  because subprocess workers' spans and events never reach the
  parent), and their journals merge into one replayable journal,
- ``shard-worker`` — join a store-backed campaign as one more worker,
- ``explain``      — replay journaled runs in-process and print per-run
  "why SDC?" drill-downs (plain and merged journals alike); exits 1
  when a replay disagrees with the journal,
- ``trace``        — query a recorded trace: ``trace query`` prints its
  span summary,
- ``report``       — render a journal (+ trace) into one self-contained
  HTML page (``--html``), re-placing the journaled runs for its heatmap,
- ``serve``        — post-hoc control plane: rebuild the ``/metrics``,
  ``/status`` and ``/trajectory`` HTTP endpoints from a finished
  campaign's journal,
- ``experiment``   — regenerate one paper artifact by id (fig4..fig10,
  table1, table2, avm),
- ``list``         — show available benchmarks and experiments.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro import telemetry
from repro.campaign.executor import CampaignExecutor
from repro.campaign.fastforward import DEFAULT_INTERVAL, FastForwardConfig
from repro.campaign.journal import JournalMismatch
from repro.campaign.report import executor_stats_table, outcome_table
from repro.campaign.runner import CampaignRunner
from repro.circuit.liberty import TECHNOLOGY
from repro.errors import characterize_wa, make_pipeline, store
from repro.experiments import REGISTRY, get_experiment
from repro.workloads import WORKLOADS, make_workload


def _points_for(reductions):
    return [TECHNOLOGY.operating_point(r / 100.0) for r in reductions]


def _check_parent_dir(path: str, flag: str) -> None:
    """Fail fast, clearly, when an output path's directory is missing."""
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise SystemExit(
            f"error: {flag} {path!r}: parent directory {str(parent)!r} "
            f"does not exist (create it first)"
        )


def _cmd_list(args) -> int:
    print("benchmarks: " + ", ".join(sorted(WORKLOADS)))
    print("experiments: " + ", ".join(sorted(REGISTRY)))
    print("scales: tiny, small, paper")
    return 0


def _cmd_characterize(args) -> int:
    points = _points_for(args.vr)
    pipeline = make_pipeline(args.workers, args.chunk, args.cache_dir,
                             use_cache=not args.no_cache)
    workload = make_workload(args.benchmark, scale=args.scale,
                             seed=args.seed)
    runner = CampaignRunner(workload, seed=args.seed)
    profile = runner.golden().profile
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.model in ("wa", "all"):
        path = store.save_wa(
            pipeline.characterize_wa(profile, points),
            out_dir / f"wa_{args.benchmark}.json")
        print(f"wrote {path}")
    if args.model in ("ia", "all"):
        path = store.save_ia(
            pipeline.characterize_ia(points, samples_per_op=args.samples,
                                     seed=args.seed),
            out_dir / "ia.json",
        )
        print(f"wrote {path}")
    if args.model in ("da", "all"):
        path = store.save_da(
            pipeline.characterize_da([profile], points,
                                     sample_per_point=args.samples,
                                     seed=args.seed),
            out_dir / "da.json",
        )
        print(f"wrote {path}")
    if pipeline.cache is not None:
        stats = pipeline.cache.stats()
        print(f"cache: {stats['hit']} hit(s), {stats['miss']} miss(es), "
              f"{stats['invalid']} invalid at {pipeline.cache.root}")
    return 0


def _parse_snapshot_interval(args):
    if args.snapshot_interval == "inf":
        return None
    try:
        return int(args.snapshot_interval)
    except ValueError:
        raise SystemExit(
            f"error: --snapshot-interval {args.snapshot_interval!r}: "
            f"expected a positive integer or 'inf'"
        )


def _cmd_shard_worker(args) -> int:
    """`shard-worker`: one worker process of a sharded campaign."""
    import json as json_mod

    from repro import chaos
    from repro.campaign.shard import run_worker

    chaos_injector = chaos.install_from_env()
    try:
        summary = run_worker(args.store, args.campaign,
                             worker_id=args.worker_id, shard=args.shard,
                             steal=not args.no_steal, wait=not args.no_wait)
    finally:
        if chaos_injector is not None:
            chaos.uninstall()
    print(json_mod.dumps(summary))
    return 0


def _check_campaign_flags(args) -> None:
    """Fail loudly on flags the campaign would otherwise ignore."""
    if args.shards < 1:
        raise SystemExit(f"error: --shards {args.shards}: expected a "
                         f"shard count >= 1")
    if not args.store:
        for flag, given in (("--shards", args.shards > 1),
                            ("--shard-procs", args.shard_procs),
                            ("--campaign-id", args.campaign_id is not None)):
            if given:
                raise SystemExit(
                    f"error: {flag} needs --store DIR (the artifact store "
                    f"that runs the campaign's cells as work items)")
    if args.shard_procs:
        for flag, given in (("--trace", args.trace),
                            ("--telemetry", args.telemetry),
                            ("--monitor", args.monitor),
                            ("--trajectory", args.trajectory)):
            if given:
                raise SystemExit(
                    f"error: {flag} is not supported with --shard-procs: "
                    f"the spans and events of subprocess workers never "
                    f"reach this process")


def _start_telemetry(args):
    """Enable ``--telemetry``; return the ``--trace`` sink, if any."""
    if not args.telemetry:
        return None
    collector = telemetry.enable()
    if not args.trace:
        return None
    from repro.telemetry import JsonlSink

    sink = JsonlSink(args.trace, meta={"benchmark": args.benchmark,
                                       "scale": args.scale,
                                       "seed": args.seed})
    collector.add_sink(sink)
    # Cross-process stitching: spans closed anywhere in this campaign —
    # including inside forked workers — are stamped with the
    # campaign/cell/run coordinates and merged back into this one trace.
    telemetry.set_trace_context(telemetry.TraceContext(
        campaign_id=f"{args.benchmark}-s{args.seed}-p{os.getpid()}"))
    return sink


def _start_views(args):
    """The live campaign state behind --monitor/--trajectory/--serve,
    and the started control plane (each None when not asked for)."""
    if not (args.monitor or args.trajectory or args.serve):
        return None, None
    from repro.observe import (
        CampaignMonitor,
        CampaignState,
        TrajectoryRecorder,
    )

    views = []
    if args.monitor:
        views.append(CampaignMonitor(total_cells=len(args.vr)))
    if args.trajectory or args.serve:
        # Path-less recorders still collect in memory for /trajectory.
        trajectory = TrajectoryRecorder(path=args.trajectory)
        views.append(trajectory)
    extra = {"scale": args.scale, "runs_per_cell": args.runs,
             "workers": args.workers}
    if args.store:
        extra["shards"] = args.shards
    state = CampaignState(args.benchmark, args.seed,
                          cells_total=len(args.vr), extra=extra,
                          views=views)
    if not args.serve:
        return state, None
    return state, _start_control_plane(args, state, trajectory.points)


def _start_control_plane(args, state, points, host="127.0.0.1"):
    """Start the HTTP control plane; report its port on stderr and in
    ``--port-file``."""
    from repro.observe.httpd import ControlPlane

    if args.port_file:
        _check_parent_dir(args.port_file, "--port-file")
    plane = ControlPlane(state, points, host=host, port=args.metrics_port)
    bound = plane.start()
    print(f"control plane: http://{host}:{bound} "
          f"(/metrics /status /trajectory)", file=sys.stderr)
    if args.port_file:
        Path(args.port_file).write_text(f"{bound}\n", encoding="utf-8")
    return plane


def _run_cells_here(args, spec, runner, model, state):
    """One executor runs every cell in this process, into ``--journal``."""
    model, adaptive = spec.cell_model(model), spec.adaptive_config()
    golden = runner.golden()  # built before the first cell's timing
    config = spec.executor_config(args.journal, resume=args.resume)
    with CampaignExecutor(runner, config=config,
                          monitor=state) as executor:
        results = [executor.run_cell(model, spec.item_point(item),
                                     runs=spec.runs, adaptive=adaptive)
                   for item in spec.items()]
    lines = []
    if executor.journal is not None:
        js = executor.journal.stats
        lines += ["", f"journal: {js['records']} record(s), {js['fsyncs']} "
                  f"fsync(s) ({args.fsync} policy), {js['write_errors']} "
                  f"write error(s), {js['crc_failures']} corrupt line(s) "
                  f"quarantined on load"]
    if golden.snapshots is not None:
        stats = golden.snapshots.stats()
        corrupt = sum(r.stats.ff_corrupt for r in results)
        cold = sum(r.stats.ff_cold_starts for r in results)
        lines += ["", (
            f"fast-forward: {stats['snapshots']} snapshot(s) over "
            f"{stats['boundaries']} boundaries (interval "
            f"{stats['interval']}), {stats['stored_bytes']} bytes "
            f"stored ({stats['dedup_saved_bytes']} deduplicated); "
            f"{sum(r.stats.ff_restores for r in results)} restore(s), "
            f"{sum(r.stats.ff_early_exits for r in results)} early "
            f"exit(s), {sum(r.stats.ff_ops_skipped for r in results)} "
            f"ops skipped")]
        if corrupt or cold:
            lines.append(
                f"fast-forward recovery: {corrupt} corrupt snapshot(s) "
                f"quarantined, {cold} cold start(s) from the initial "
                f"state (outcomes unaffected: recovery replays more, "
                f"never differently)")
    return results, executor_stats_table(results), "\n".join(lines)


def _run_cells_in_store(args, spec, runner, model, state):
    """The store's work queue runs the cells, then their journals merge.

    Inline shard workers share this process's runner and feed ``state``
    live; either way the final state is the merged journal's replay.
    """
    from repro.artifacts import ArtifactStore
    from repro.campaign.shard import ShardCoordinator
    from repro.observe.html_report import load_campaign_results
    from repro.observe.state import ShardStatus

    store_root = Path(args.store)
    artifact_store = ArtifactStore.local(store_root)
    coordinator = ShardCoordinator.create(artifact_store, spec, [model])
    if state is not None:
        state.apply(ShardStatus(coordinator.status()))
    restarts = 0
    if args.shard_procs:
        supervision = coordinator.run_processes(state=state)
        restarts = sum(supervision["restarts"].values())
    else:
        for summary in coordinator.run_inline(runner=runner, monitor=state):
            print(f"shard worker {summary['worker']}: "
                  f"{summary['items']} cell(s), "
                  f"{summary['runs']} run(s)", file=sys.stderr)
    merged_path = (Path(args.journal) if args.journal else
                   store_root / "merged" / f"{spec.campaign_id}.jsonl")
    merged_path.parent.mkdir(parents=True, exist_ok=True)
    report = coordinator.merge(merged_path)
    status = coordinator.status()
    if state is not None:
        state.apply(ShardStatus(status))
        state.reload(merged_path)
        state.close()
    manifest = report["manifest"]
    head = "\n".join([
        f"sharded campaign {spec.campaign_id!r}: {spec.shards} shard(s), "
        f"{status['done']}/{status['items']} cell(s) done, "
        f"{restarts} worker restart(s)",
        f"merged journal: {merged_path} ({report['runs']} run(s), "
        f"{report['cells']} cell summary(ies), {report['stops']} "
        f"stop decision(s); {report['torn_lines']} torn line(s) and "
        f"{report['crc_failures']} corrupt line(s) dropped)",
        f"archived: {len(manifest['shards'])} shard journal(s) + "
        f"merged at {manifest['merged'][:12]}… in {store_root}",
    ])
    stats, tail = artifact_store.stats(), ""
    if stats["corrupt"] or stats["quarantined"]:
        tail = (f"artifact store: {stats['corrupt']} corrupt object(s), "
                f"{stats['quarantined']} quarantined entr(ies) — "
                f"recomputed transparently")
    return load_campaign_results(merged_path), head, tail


def _print_campaign_summary(args, spec, runner, results, head, tail,
                            chaos_injector) -> None:
    print(outcome_table(results))
    print()
    print(head)
    adaptive = spec.adaptive_config()
    if adaptive is not None:
        budget = spec.runs * len(results)
        executed = sum(r.counts.total for r in results)
        print()
        print(f"adaptive: {executed}/{budget} runs "
              f"({max(0, budget - executed)} saved, target "
              f"±{adaptive.ci_target:g} at {adaptive.confidence:.0%})")
        for result in results:
            stop = result.stop
            if stop is None:
                continue
            print(f"  {result.workload}/{result.model}/{result.point}: "
                  f"{stop.rule} at n={stop.n} "
                  f"AVM in [{stop.ci_lo:.3f}, {stop.ci_hi:.3f}]")
            if adaptive.importance:
                print(f"    weighted AVM: HT {result.avm_ht:.3f}, "
                      f"self-normalized {result.avm_sn:.3f}")
    if tail:
        print(tail)
    if chaos_injector is not None:
        tallies = ", ".join(f"{name}={count}" for name, count
                            in sorted(chaos_injector.stats.items()))
        print()
        print(f"chaos: incarnation {chaos_injector.incarnation}, "
              f"faults {'on' if chaos_injector.faults_active else 'off'}"
              + (f", injected: {tallies}" if tallies else ""))
    elif args.fast_forward and runner.workload.checkpointable is False:
        print()
        print(f"fast-forward: {runner.workload.name} is not "
              f"checkpointable; runs used full replay")
    if args.telemetry:
        from repro.telemetry import summary_table

        print()
        print(summary_table(telemetry.snapshot()))
        telemetry.disable()


def _cmd_campaign(args) -> int:
    """`campaign`: build the campaign's spec, then run its cells here
    (into ``--journal``) or, with ``--store``, as the store's work items
    (merged into ``--journal``, default ``<store>/merged/<id>.jsonl``).
    """
    from dataclasses import asdict, replace

    from repro import chaos
    from repro.campaign.adaptive import AdaptiveConfig
    from repro.campaign.shard import CampaignSpec

    _check_campaign_flags(args)
    if args.trace:
        args.telemetry = True  # --trace implies telemetry, explicitly
    for flag, path in (("--journal", args.journal), ("--trace", args.trace),
                       ("--trajectory", args.trajectory)):
        if path:
            _check_parent_dir(path, flag)
    points = _points_for(args.vr)
    adaptive = None
    if args.adaptive or args.importance:
        adaptive = asdict(AdaptiveConfig(ci_target=args.ci_target,
                                         min_runs=args.min_runs,
                                         importance=args.importance))
    spec = CampaignSpec(
        campaign_id=args.campaign_id or f"{args.benchmark}-s{args.seed}",
        benchmark=args.benchmark, scale=args.scale, seed=args.seed,
        runs=args.runs, shards=args.shards,
        points=tuple(CampaignSpec.point_dict(p) for p in points),
        models=(),  # named once the model is loaded
        adaptive=adaptive,
        fastforward=FastForwardConfig(
            enabled=args.fast_forward,
            interval=_parse_snapshot_interval(args),
            # Snapshot pages go through the shared store, so every
            # worker reuses pages any other worker already built.
            page_store_dir=(str(Path(args.store))
                            if args.store and args.fast_forward else None),
        ).to_dict(),
        executor={"workers": args.workers,
                  "wall_clock_timeout": args.wall_timeout,
                  "fsync": args.fsync},
    )
    # A supervising `repro chaos` process ships a fault plan through the
    # environment; outside a chaos run this is a no-op returning None.
    chaos_injector = chaos.install_from_env()
    sink = _start_telemetry(args)
    state, control_plane = _start_views(args)
    try:
        runner = spec.make_runner()
        try:
            model = (store.load_any(args.model_file) if args.model_file
                     else characterize_wa(runner.golden().profile, points))
            spec = replace(spec, models=(model.name,))
            injected = spec.cell_model(model)
            if sink is not None and injected.provenance is not None:
                # Framed record so `repro report` can show where the
                # injected model came from (benchmark, seed, samples,
                # trace digest).
                sink.emit({"type": "provenance", "model": injected.name,
                           "line": injected.provenance.describe(),
                           **injected.provenance.to_dict()})
            run_cells = (_run_cells_in_store if args.store
                         else _run_cells_here)
            results, head, tail = run_cells(args, spec, runner, model,
                                            state)
        finally:
            if sink is not None:
                telemetry.clear_trace_context()
                sink.close(telemetry.get_collector())
            if chaos_injector is not None:
                chaos.uninstall()
        _print_campaign_summary(args, spec, runner, results, head, tail,
                                chaos_injector)
        if control_plane is not None and args.serve_grace > 0:
            # Keep the endpoints up so a supervisor (CI, a dashboard
            # poller) can scrape the finished campaign's final state.
            print(f"control plane: serving final state for "
                  f"{args.serve_grace:g}s more", file=sys.stderr)
            time.sleep(args.serve_grace)
    finally:
        if control_plane is not None:
            control_plane.close()
    return 0


def _cmd_serve(args) -> int:
    """Post-hoc control plane: serve a finished campaign's artifacts.

    Replays the journal's events into a campaign state, loads the CI
    trajectory if one was recorded, and exposes the same ``/metrics`` /
    ``/status`` / ``/trajectory`` endpoints as ``repro campaign
    --serve`` — without re-running anything.
    """
    from repro.observe.state import CampaignState

    state = CampaignState.replay(args.journal,
                                 benchmark=args.benchmark or "",
                                 seed=args.seed)
    if not state.snapshot().cells:
        raise SystemExit(
            f"error: no campaign results in journal {args.journal!r}"
        )
    points = None
    if args.trajectory:
        from repro.observe import load_trajectory

        points = load_trajectory(args.trajectory)
    plane = _start_control_plane(args, state, points, host=args.host)
    deadline = (time.monotonic() + args.duration
                if args.duration is not None else None)
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.1)
    except KeyboardInterrupt:
        pass
    finally:
        plane.close()
    return 0


def _parse_fs_rates(specs):
    """``TARGET:KIND=RATE`` flags -> the FaultPlan fs_rates mapping."""
    from repro.chaos import FS_KINDS, FS_TARGETS

    rates = {}
    for spec in specs:
        try:
            target_kind, rate = spec.split("=", 1)
            target, kind = target_kind.split(":", 1)
            rates.setdefault(target, {})[kind] = float(rate)
        except ValueError:
            raise SystemExit(
                f"error: --fs-rate {spec!r}: expected TARGET:KIND=RATE "
                f"(targets: {', '.join(FS_TARGETS)}; kinds: "
                f"{', '.join(FS_KINDS)})"
            )
    return rates


def _cmd_chaos(args) -> int:
    from repro import chaos

    campaign_args = list(args.campaign_args)
    if campaign_args and campaign_args[0] == "--":
        campaign_args = campaign_args[1:]
    if "--journal" not in campaign_args:
        raise SystemExit(
            "error: repro chaos supervises a journaled campaign; pass "
            "--journal PATH among the campaign arguments"
        )
    try:
        plan = chaos.FaultPlan(
            seed=args.plan_seed,
            worker_kill_rate=args.worker_kill_rate,
            max_worker_kills=args.max_worker_kills,
            coordinator_kills=tuple(args.coordinator_kills),
            fs_rates=_parse_fs_rates(args.fs_rate),
        )
    except ValueError as exc:
        raise SystemExit(f"error: invalid fault plan: {exc}")
    argv = [sys.executable, "-m", "repro", "campaign"] + campaign_args
    result = chaos.supervise(argv, plan, max_restarts=args.max_restarts,
                             heal=not args.no_heal, stats_path=args.stats)
    print()
    print(f"chaos: {result.incarnations} incarnation(s), "
          f"{result.restarts} restart(s) after injected kills, "
          f"heal pass {'completed' if result.healed else 'skipped'}"
          f"{'' if result.ok else f', FAILED (exit {result.exit_code})'}")
    if args.stats and Path(args.stats).exists():
        print(f"chaos: per-process fault tallies in {args.stats}")
    return 0 if result.ok else 1


def _stitched_spans_text(events, run_key: str) -> str:
    """Render the cross-process span trail of one run, if recorded.

    Spans closed inside forked workers carry the run's trace context
    (campaign id, cell, run key, pid); sorted by wall-clock timestamp
    they read as one causal trace even though the work crossed a fork.
    """
    from repro.telemetry import spans_for_run

    spans = spans_for_run(events, run_key)
    if not spans:
        return ""
    lines = [f"spans ({run_key}):",
             f"  {'pid':>8}  {'duration ms':>12}  path"]
    for span in spans:
        attrs = span.get("attrs", {})
        pid = attrs.get("pid", "?")
        lines.append(f"  {pid!s:>8}  {span.get('duration_ms', 0.0):>12.3f}"
                     f"  {span.get('path', span.get('name', '?'))}")
    return "\n".join(lines)


def _cmd_explain(args) -> int:
    """Replay journaled runs in-process; exit 1 on any disagreement."""
    from repro.observe import explain

    try:
        records, replayer = explain.open_journal(args.journal,
                                                 args.model_file)
    except explain.ReplayError as exc:
        raise SystemExit(f"error: {exc}")
    selected = explain.filter_records(
        records, workload=args.workload, model=args.model,
        point=args.point, outcome=args.outcome, run_index=args.run,
    )
    replays = [replayer.replay(record) for record in selected]
    if args.explain or args.run is not None:
        if not replays:
            print("(no journaled runs match)")
            return 1
        events = []
        if args.trace:
            from repro.telemetry.sinks import read_trace

            events = read_trace(args.trace)
        for replay in replays:
            print(explain.narrative(replay))
            stitched = _stitched_spans_text(events, replay.record.key)
            if stitched:
                print()
                print(stitched)
            print()
    else:
        print(explain.runs_table(replays))
        if args.summary:
            print()
            print(explain.summary_tables(replays))
    mismatched = [replay for replay in replays if replay.mismatches]
    for replay in mismatched:
        print(f"replay mismatch: {replay.record.key}: "
              f"{'; '.join(replay.mismatches)}", file=sys.stderr)
    print(f"explain: {len(replays)} run(s) replayed, {len(mismatched)} "
          f"mismatch(es)", file=sys.stderr)
    return 1 if mismatched else 0


def _cmd_trace(args) -> int:
    from repro.telemetry import span_summary_table
    from repro.telemetry.sinks import read_trace

    print(span_summary_table(read_trace(args.trace)))
    return 0


def _cmd_report(args) -> int:
    from repro.observe.html_report import (
        load_campaign_results,
        write_report,
    )

    _check_parent_dir(args.html, "--html")
    results = load_campaign_results(args.journal) if args.journal else []
    runs = []
    if args.journal:
        from repro.observe import explain

        try:
            records, replayer = explain.open_journal(args.journal,
                                                     args.model_file)
        except explain.ReplayError as exc:
            print(f"report: no run heatmap or drill-downs: {exc}",
                  file=sys.stderr)
        else:
            runs = explain.report_runs(replayer, records)
            for replay in runs:
                if replay.mismatches:
                    print(f"report: replay mismatch: {replay.record.key}: "
                          f"{'; '.join(replay.mismatches)}",
                          file=sys.stderr)
    snapshot = None
    provenance = []
    if args.trace:
        from repro.telemetry.sinks import read_trace

        events = read_trace(args.trace)
        for event in reversed(events):
            if event.get("type") == "snapshot":
                snapshot = event
                break
        provenance = [
            f"{event.get('model', '?')}: {event['line']}"
            for event in events
            if event.get("type") == "provenance" and event.get("line")
        ]
    trajectory_points = []
    if args.trajectory:
        from repro.observe import load_trajectory

        trajectory_points = load_trajectory(args.trajectory)
    out = write_report(args.html, results, runs, snapshot,
                       title=args.title, provenance_lines=provenance,
                       trajectory_points=trajectory_points)
    print(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    spec = get_experiment(args.id)
    if args.list_options:
        print(spec.describe_options())
        return 0
    options = spec.parse_cli(args.options)
    result = spec.run(**options)
    print(spec.render(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Circuit- and workload-aware timing-error assessment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show benchmarks and experiments")

    p = sub.add_parser("characterize",
                       help="build and save error-model artifacts")
    p.add_argument("benchmark", choices=sorted(WORKLOADS))
    p.add_argument("--model", choices=["da", "ia", "wa", "all"],
                   default="wa")
    p.add_argument("--scale", default="small",
                   choices=["tiny", "small", "paper"])
    p.add_argument("--vr", type=int, nargs="+", default=[15, 20],
                   help="voltage reductions in percent")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--output", default="artifacts")
    p.add_argument("--workers", type=int, default=0,
                   help="characterization worker processes "
                        "(0 = in-process; any count is bit-identical)")
    p.add_argument("--chunk", type=int, default=None,
                   help="operand chunk size streamed through DTA "
                        "(bounds peak memory; result is bit-identical "
                        "for any value)")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed model cache directory; "
                        "repeat runs with identical inputs are near-free")
    p.add_argument("--no-cache", action="store_true",
                   help="compute fresh even when --cache-dir is set "
                        "(entries are still not rewritten)")

    p = sub.add_parser("campaign", help="run an injection campaign")
    p.add_argument("benchmark", choices=sorted(WORKLOADS))
    p.add_argument("--model-file", help="saved artifact (default: fresh WA)")
    p.add_argument("--runs", type=int, default=1068)
    p.add_argument("--adaptive", action="store_true",
                   help="stop each cell when the anytime-valid CI "
                        "reaches --ci-target (--runs is the ceiling)")
    p.add_argument("--ci-target", type=float, default=0.03,
                   help="adaptive stop half-width (the paper's ±margin)")
    p.add_argument("--min-runs", type=int, default=100,
                   help="adaptive floor: never stop below this many runs")
    p.add_argument("--importance", action="store_true",
                   help="importance-sample WA victim placement "
                        "(Horvitz–Thompson reweighted AVM; implies "
                        "--adaptive)")
    p.add_argument("--scale", default="small",
                   choices=["tiny", "small", "paper"])
    p.add_argument("--vr", type=int, nargs="+", default=[15, 20])
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--workers", type=int, default=0,
                   help="isolated worker processes (0 = serial in-process)")
    p.add_argument("--wall-timeout", type=float, default=None,
                   help="per-run wall-clock watchdog in seconds")
    p.add_argument("--journal", default=None,
                   help="append-only JSONL run journal (checkpoint file)")
    p.add_argument("--resume", action="store_true",
                   help="resume from an existing journal instead of "
                        "starting clean")
    p.add_argument("--fsync", choices=["group", "always", "close"],
                   default="group",
                   help="journal durability policy: 'group' (default) "
                        "fsyncs every 64 records / 50 ms, 'always' per "
                        "record, 'close' only at shutdown")
    p.add_argument("--telemetry", action="store_true",
                   help="collect counters/spans and print a summary table")
    p.add_argument("--trace", default=None,
                   help="write a JSONL telemetry trace to this path "
                        "(implies --telemetry)")
    p.add_argument("--monitor", action="store_true",
                   help="live terminal status: progress, outcome tallies, "
                        "AVM with 95%% CI, worker health, ETA")
    p.add_argument("--serve", action="store_true",
                   help="expose a live HTTP control plane (/metrics in "
                        "Prometheus text format, /status JSON, "
                        "/trajectory NDJSON) for the campaign's duration")
    p.add_argument("--metrics-port", type=int, default=0,
                   help="control-plane TCP port (default 0 = ephemeral; "
                        "the bound port is printed to stderr and shown "
                        "in /status)")
    p.add_argument("--port-file", default=None,
                   help="write the bound control-plane port to this file "
                        "(for scripts scraping an ephemeral port)")
    p.add_argument("--serve-grace", type=float, default=0.0,
                   help="keep the control plane up this many seconds "
                        "after the campaign finishes (lets CI scrape "
                        "final /metrics and /status)")
    p.add_argument("--trajectory", default=None,
                   help="append per-run CI-trajectory points (cell, "
                        "runs_done, AVM, Wilson bounds, wall_s) to this "
                        "JSONL file")
    ff = p.add_mutually_exclusive_group()
    ff.add_argument("--fast-forward", dest="fast_forward",
                    action="store_true", default=True,
                    help="restore golden-run snapshots and replay only "
                         "the post-injection suffix (default; bit-"
                         "identical to full replay)")
    ff.add_argument("--no-snapshots", dest="fast_forward",
                    action="store_false",
                    help="full replay for every run — the reference "
                         "semantics; required when the workload is "
                         "modified mid-campaign or when auditing the "
                         "fast-forward engine itself")
    p.add_argument("--snapshot-interval", default=str(DEFAULT_INTERVAL),
                   help="snapshot spacing in step boundaries, or 'inf' "
                        "for the initial snapshot only "
                        f"(default {DEFAULT_INTERVAL})")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the campaign's cells into this many "
                        "shards (more than 1 requires --store); the "
                        "merged journal is bit-identical to an "
                        "unsharded run's")
    p.add_argument("--store", default=None,
                   help="run the cells as work items of this artifact "
                        "store (staged models, work queue, per-cell "
                        "journals, archived merge); without it they run "
                        "in this process, journaling into --journal")
    p.add_argument("--campaign-id", default=None,
                   help="name of the campaign in --store (default "
                        "'<benchmark>-s<seed>'); re-running with the same "
                        "id resumes it")
    p.add_argument("--shard-procs", action="store_true",
                   help="with --store: one OS-process worker per shard "
                        "(crash-isolated, self-healing via lease "
                        "stealing) instead of draining shards in-process; "
                        "rejects --trace, --telemetry, --monitor and "
                        "--trajectory")

    p = sub.add_parser(
        "shard-worker",
        help="drain work items of a sharded campaign",
        description="One worker of a `campaign --shards N` fleet: "
                    "claims leased work items from the store's durable "
                    "queue, runs each cell through the executor with "
                    "its journal resumed, and steals stale leases from "
                    "dead workers unless --no-steal.")
    p.add_argument("--store", required=True,
                   help="the campaign's artifact store directory")
    p.add_argument("--campaign", required=True,
                   help="campaign id inside the store")
    p.add_argument("--shard", type=int, default=None,
                   help="preferred shard (its items are claimed first)")
    p.add_argument("--worker-id", default=None,
                   help="stable worker name for leases/status "
                        "(default 'worker-<pid>')")
    p.add_argument("--no-steal", action="store_true",
                   help="never claim items outside --shard")
    p.add_argument("--no-wait", action="store_true",
                   help="exit when nothing is claimable instead of "
                        "waiting for stragglers to finish or die")

    p = sub.add_parser(
        "chaos",
        help="run a campaign under a deterministic fault plan",
        description="Supervise `repro campaign` under seeded harness "
                    "faults: worker SIGKILLs, coordinator kills at "
                    "journal boundaries, and injected EIO/ENOSPC/torn/"
                    "bit-rot filesystem faults.  Killed campaigns are "
                    "restarted with --resume; a final fault-free heal "
                    "pass leaves the journal canonically identical to a "
                    "fault-free run's.  Arguments after `--` are "
                    "forwarded to `repro campaign` verbatim and must "
                    "include --journal.")
    p.add_argument("--plan-seed", type=int, default=0,
                   help="fault-plan seed (same seed = same faults)")
    p.add_argument("--worker-kill-rate", type=float, default=0.0,
                   help="probability a run's worker is SIGKILLed "
                        "pre-guest (retried as a harness failure)")
    p.add_argument("--max-worker-kills", type=int, default=1,
                   help="max consecutive kill attempts per run; keep "
                        "<= the executor's max_retries (2) or the run "
                        "is abandoned")
    p.add_argument("--coordinator-kills", type=int, nargs="*", default=[],
                   help="journal-record counts after which incarnation "
                        "0, 1, ... of the coordinator is SIGKILLed")
    p.add_argument("--fs-rate", action="append", default=[],
                   metavar="TARGET:KIND=RATE",
                   help="filesystem fault rate, repeatable (targets: "
                        "journal, cache, store, page; kinds: eio, "
                        "enospc, torn, bitrot)")
    p.add_argument("--max-restarts", type=int, default=8,
                   help="give up after this many restarts")
    p.add_argument("--stats", default=None,
                   help="append per-process fault tallies to this "
                        "JSONL file")
    p.add_argument("--no-heal", action="store_true",
                   help="skip the final fault-free --resume pass")
    p.add_argument("campaign_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to `repro campaign`")

    p = sub.add_parser(
        "explain", help="replay journaled runs and explain their outcomes",
        description="Rebuild a campaign's golden run and model from its "
                    "journal, re-execute the selected runs in-process and "
                    "check each against its journal record (exit 1 and "
                    "name the run on any disagreement).  With --run or "
                    "--explain, print the full per-run causal chain "
                    "(victims, placement, masking, outcome).")
    p.add_argument("journal", help="journal written by campaign --journal")
    p.add_argument("--model-file",
                   help="the campaign's saved model artifact (default: "
                        "rebuild the fresh WA model as campaign does)")
    p.add_argument("--trace", default=None,
                   help="telemetry trace of the campaign: append each "
                        "run's stitched span trail")
    p.add_argument("--workload", help="filter by benchmark name")
    p.add_argument("--model", help="filter by error model (DA/IA/WA)")
    p.add_argument("--point", help="filter by operating point (e.g. VR20)")
    p.add_argument("--outcome",
                   help="filter by outcome (Masked/SDC/Crash/Timeout)")
    p.add_argument("--run", type=int, default=None,
                   help="drill into one run index (prints the full chain)")
    p.add_argument("--explain", action="store_true",
                   help="print the full causal chain of every match")
    p.add_argument("--summary", action="store_true",
                   help="append derived tables: outcome tallies, masking "
                        "stages, per-bit flip histograms")

    p = sub.add_parser("trace", help="query a recorded telemetry trace")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    q = trace_sub.add_parser(
        "query", help="summarise a trace's spans",
        description="Print the span summary (by total time) of a JSONL "
                    "trace, worker spans stitched in.")
    q.add_argument("trace", help="JSONL trace written by campaign --trace")

    p = sub.add_parser(
        "report", help="render an HTML campaign report",
        description="Render a self-contained HTML page (inline CSS/SVG, "
                    "no external assets) from a campaign journal and/or "
                    "telemetry trace.")
    p.add_argument("--journal", default=None,
                   help="campaign journal to reconstruct results and "
                        "re-place runs from")
    p.add_argument("--trace", default=None,
                   help="telemetry trace (telemetry snapshot and model "
                        "provenance)")
    p.add_argument("--model-file", default=None,
                   help="the campaign's saved model artifact, for "
                        "re-placing its runs (default: the fresh WA "
                        "model campaign builds)")
    p.add_argument("--html", required=True,
                   help="output path of the report page")
    p.add_argument("--title", default="Timing-error campaign report")
    p.add_argument("--trajectory", default=None,
                   help="CI-trajectory JSONL (campaign --trajectory) to "
                        "render as a convergence section")

    p = sub.add_parser(
        "serve",
        help="serve a finished campaign's status and metrics over HTTP",
        description="Rebuild the /metrics, /status and /trajectory "
                    "endpoints from a finished campaign's journal (and "
                    "optional trajectory stream) without re-running "
                    "anything.  Runs until Ctrl-C or --duration.")
    p.add_argument("--journal", required=True,
                   help="campaign journal to reconstruct state from")
    p.add_argument("--trajectory", default=None,
                   help="CI-trajectory JSONL recorded by campaign "
                        "--trajectory")
    p.add_argument("--benchmark", default=None,
                   help="benchmark name to show in /status (cosmetic)")
    p.add_argument("--seed", type=int, default=None,
                   help="campaign seed to show in /status (cosmetic)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--metrics-port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral, printed to "
                        "stderr)")
    p.add_argument("--port-file", default=None,
                   help="write the bound port to this file")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for this many seconds then exit "
                        "(default: until interrupted)")

    p = sub.add_parser(
        "experiment", help="regenerate a paper artifact",
        description="Run one registered experiment.  Options after the id "
                    "are experiment-specific; discover them with "
                    "--list-options.")
    p.add_argument("id", choices=sorted(REGISTRY))
    p.add_argument("--list-options", action="store_true",
                   help="show the experiment's options and exit")
    p.add_argument("options", nargs=argparse.REMAINDER,
                   help="experiment options as --name value pairs")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "characterize": _cmd_characterize,
        "campaign": _cmd_campaign,
        "shard-worker": _cmd_shard_worker,
        "chaos": _cmd_chaos,
        "explain": _cmd_explain,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except JournalMismatch as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
