#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_job --seed 2021 \\
        --seconds 15 --trace 0

The workload is set up three times, spread over the run (``setup_s`` is
the import time plus the median set-up), and its job runs repeatedly
until the iterations add up to ``--seconds``.
``--trace 0`` reports the end-to-end metrics (medians over the untraced
iterations); ``--trace 1`` alternates traced and untraced iterations,
prints the per-layer table of the median traced iteration and reports
the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Every iteration is checked: invariants of the outputs, identical outputs
and counts across iterations, the outputs recorded in ``reference.json``
for this seed (if any) and the counts of earlier runs of the same code
and seed.  A failed check prints ``"correct": false`` and exits 1.
``--record`` stores this run's outputs as the seed's reference.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_UNTRACED = 2
MIN_TRACED = 2

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

#: Layer self times reported under ``<layer>_s``; golden and cell are
#: reported inclusive under that name and self under the second name.
SELF_LAYERS = (
    "workloads.input", "uarch.trace", "uarch.ooo", "errors.plan",
    "uarch.place", "campaign.guest", "campaign.ff.replay",
    "workloads.classify", "campaign.journal.write", "campaign.journal.open",
    "errors.ia", "errors.da", "errors.wa", "fpu.masks", "circuit.gate",
    "circuit.bitsim",
)
SPLIT_LAYERS = {"campaign.golden": "campaign.golden_exec_s",
                "campaign.cell": "campaign.cell_self_s"}

#: Count-valued per-layer metrics: identical for equal code and seed.
EXACT_COUNTS = (
    "campaign.runs", "campaign.guest_runs", "campaign.ff.restores",
    "campaign.ff.ops_skipped", "campaign.ff.ops_replayed",
    "campaign.ff.early_exits", "campaign.ff.cold_starts",
    "campaign.golden_builds", "campaign.journal.records",
    "errors.cache_hits", "errors.cache_misses", "errors.vectors",
    "uarch.sim_cycles", "circuit.gate_vectors", "circuit.faulty",
)

PER_LAYER = {
    **{f"{layer}_s": "s" for layer in SELF_LAYERS},
    "campaign.golden_s": "s",
    "campaign.golden_exec_s": "s",
    "campaign.cell_s": "s",
    "campaign.cell_self_s": "s",
    "uarch.ooo_us_per_fp": "us",
    "campaign.host_ms_per_run": "ms",
    "campaign.guest_frac": "ratio",
    "campaign.ff.skip_frac": "ratio",
    "circuit.vectors_per_s": "1/s",
    **{name: "count" for name in EXACT_COUNTS},
    "runs_per_s": "1/s",
    "samples_per_s": "1/s",
    "failed_frac": "ratio",
    "unattributed_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=None,
                        help="reference file (default: perfbench/"
                             "reference.json)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference")
    return parser.parse_args(argv)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wall: float, tracer_view: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    inclusive, self_time, calls, extra = tracer_view
    out = {f"{layer}_s": self_time.get(layer, 0.0) for layer in SELF_LAYERS}
    for layer, self_name in SPLIT_LAYERS.items():
        out[f"{layer}_s"] = inclusive.get(layer, 0.0)
        out[self_name] = self_time.get(layer, 0.0)
    merged = dict(counts)
    merged["campaign.guest_runs"] = calls.get("campaign.guest", 0)
    merged["campaign.golden_builds"] = calls.get("campaign.golden", 0)
    for key in ("uarch.sim_cycles", "errors.vectors"):
        merged[key] = extra.get(key, 0)
    for name in EXACT_COUNTS:
        out[name] = merged.get(name, 0)
    runs = out["campaign.runs"]
    out["uarch.ooo_us_per_fp"] = ratio(out["uarch.ooo_s"] * 1e6,
                                       extra.get("uarch.fp_simulated", 0))
    out["campaign.host_ms_per_run"] = ratio(out["campaign.cell_s"] * 1e3,
                                            runs)
    out["campaign.guest_frac"] = ratio(out["campaign.guest_runs"], runs)
    out["campaign.ff.skip_frac"] = ratio(
        out["campaign.ff.ops_skipped"],
        out["campaign.ff.ops_skipped"] + out["campaign.ff.ops_replayed"])
    out["circuit.vectors_per_s"] = ratio(out["circuit.gate_vectors"],
                                         inclusive.get("circuit.gate", 0.0))
    out["runs_per_s"] = ratio(runs, out["campaign.cell_s"])
    out["unattributed_s"] = wall - sum(self_time.values())
    return out


def layer_table(workload: str, wall: float, self_time: dict) -> str:
    rows = sorted(self_time.items(), key=lambda item: -item[1])
    rows.append(("unattributed", wall - sum(self_time.values())))
    lines = [f"per-layer self time, {workload} (traced job {wall:.3f} s)",
             f"  {'layer':<26}{'self s':>10}{'share':>9}"]
    for name, value in rows:
        lines.append(f"  {name:<26}{value:>10.4f}{value / wall:>9.1%}")
    lines.append(f"  {'total':<26}{wall:>10.4f}{1:>9.1%}")
    return "\n".join(lines)


def measure(job, args):
    """Set up three times and iterate until ``args.seconds`` of jobs.

    The set-ups are spread over the run, one before each of the first
    iterations, so that slow drift of the host's speed is averaged over
    the whole run rather than over its tail; any left when the
    iterations end run last.  Returns the set-up times, the untraced
    iterations and the traced ``(iteration, view)`` pairs.
    """
    from perfbench.tracer import Tracer, install_layers

    setups, untraced, traced = [], [], []
    tracer = Tracer()

    def set_up():
        start = time.perf_counter()
        job.setup()
        setups.append(time.perf_counter() - start)

    job_time = 0.0
    while job_time < args.seconds or (
            len(traced) < MIN_TRACED or not untraced if args.trace
            else len(untraced) < MIN_UNTRACED):
        if len(setups) < SETUP_REPEATS:
            set_up()
        if args.trace and len(traced) <= len(untraced):
            tracer.reset()
            install_layers(tracer)
            try:
                it = job.run()
            finally:
                tracer.uninstall()
            traced.append((it, (dict(tracer.inclusive),
                                dict(tracer.self_time), dict(tracer.calls),
                                dict(tracer.counts))))
        else:
            it = job.run()
            untraced.append(it)
        job_time += it.wall_s
    while len(setups) < SETUP_REPEATS:
        set_up()
    return setups, untraced, traced


def verify(iterations, layer_views):
    """Invariant failures and cross-iteration differences, and the
    run's count-valued metrics."""
    from perfbench import check

    problems = [p for it in iterations for p in it.problems]
    first = iterations[0]
    for it in iterations[1:]:
        problems += [f"iteration outputs differ: {p}"
                     for p in check.diff(check.normalise(first.outputs),
                                         check.normalise(it.outputs))]
        problems += [f"iteration counts differ: {p}"
                     for p in check.shared_diff(first.counts, it.counts)]
    counts = dict(first.counts)
    exact = [{k: view[k] for k in EXACT_COUNTS} for view in layer_views]
    for other in exact[1:]:
        problems += [f"traced counts differ: {p}"
                     for p in check.shared_diff(exact[0], other)]
    if exact:
        counts.update(exact[0])
    return problems, counts


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no repro package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    from perfbench import check, jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = jobs.WORKLOADS[args.workload](args.seed, workdir)
        setups, untraced, traced = measure(job, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    iterations = untraced + [it for it, _ in traced]
    layer_views = [layer_metrics(it.wall_s, view, it.counts)
                   for it, view in traced]
    problems, counts = verify(iterations, layer_views)
    references = check.References(args.reference or check.REFERENCE_FILE)
    problems += references.check(args.workload, args.seed,
                                 iterations[0].outputs, counts)
    problems += check.DeterminismLog(
        ROOT / ".perfbench_work" / "determinism", args.workload, args.seed,
        check.code_digest(src, ROOT / "perfbench")).check_and_update(counts)
    if args.record and not problems:
        references.record(args.workload, args.seed, iterations[0].outputs,
                          counts)

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    work_rate = statistics.median(ratio(it.work, it.work_s)
                                  for it in untraced)
    job_s = statistics.median(it.wall_s for it in untraced)
    if args.trace:
        # The traced iteration of median wall time (lower middle).
        order = sorted(range(len(traced)), key=lambda i: traced[i][0].wall_s)
        pick = order[(len(order) - 1) // 2]
        wall = traced[pick][0].wall_s
        values = dict(layer_views[pick])
        values["trace.job_s"] = wall
        values["trace.overhead_s"] = wall - job_s
        values["samples_per_s"] = work_rate if job.unit == "vectors" else 0.0
        values["failed_frac"] = ratio(failed, attempted)
        print(layer_table(args.workload, wall, traced[pick][1][1]))
        units = PER_LAYER
    else:
        values = {
            "job_s": job_s,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "work_per_s": work_rate,
        }
        units = END_TO_END
    print(f"perfbench: {args.workload} seed {args.seed}: setup "
          f"{[round(t, 3) for t in setups]} s, untraced "
          f"{[round(it.wall_s, 3) for it in untraced]} s, traced "
          f"{[round(it.wall_s, 3) for it, _ in traced]} s", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
