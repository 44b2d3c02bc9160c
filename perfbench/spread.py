#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads paper_job model_dev \\
        --seeds 10 --seconds 20

For every workload it runs ``perfbench/run.py --trace 0`` once per seed
(seeds 1..N), one run at a time, and prints per end-to-end metric the
median and the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``): the steadiness
figure the bounds in BENCHMARK.json are set against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, ((q3 - q1) / median if median else float("nan"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            for line in proc.stderr.splitlines():
                print(f"  {line}", flush=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({name: m["value"]
                         for name, m in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        print(f"{workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [run[name] for run in runs]
            if len(values) >= 2:
                median, iqr = spread(values)
                print(f"  {name:<14} median {median:<12.5g} "
                      f"IQR/median {iqr:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
