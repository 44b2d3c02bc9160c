#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Usage (from the repository root)::

    python3 perfbench/selftest.py

1. Every recorded reference matches itself, and :meth:`References.check`
   rejects the recorded outputs and counts against a copy of the
   reference with one output, or one count, changed.
2. End to end: ``run.py`` against a reference file in which one gate
   count of ``model_dev`` seed 2021 is changed prints
   ``"correct": false`` and exits 1.
3. The metric names and units in ``BENCHMARK.json`` are the ones
   ``run.py`` prints.
4. Installing and removing the layer wrappers leaves ``repro`` as it was.
5. The determinism log accepts repeated counts and rejects a changed one.

Exits 0 when every check holds.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import check, run  # noqa: E402
from perfbench.tracer import Tracer, install_layers  # noqa: E402


def tamper(entry: dict, part: str) -> dict:
    """``entry`` with the first numeric leaf of ``entry[part]`` (its
    outputs or its counts) changed by one."""
    bad = copy.deepcopy(entry)
    todo = [bad[part]]
    while todo:
        node = todo.pop(0)
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            value = node[key]
            if isinstance(value, (dict, list)):
                todo.append(value)
            elif isinstance(value, (int, float)) and not isinstance(value,
                                                                    bool):
                node[key] = value + 1
                return bad
    raise ValueError(f"reference holds no numeric {part}")


def check_references(failures: list) -> None:
    refs = check.References()
    if not refs.data:
        failures.append("reference.json holds no reference")
    for workload, seeds in refs.data.items():
        for seed, entry in seeds.items():
            outputs, counts = entry["outputs"], entry["counts"]
            if refs.check(workload, int(seed), outputs, counts):
                failures.append(f"{workload}/{seed}: reference rejects "
                                "itself")
            for part in ("outputs", "counts"):
                tampered = copy.copy(refs)
                tampered.data = {workload: {seed: tamper(entry, part)}}
                if not tampered.check(workload, int(seed), outputs, counts):
                    failures.append(f"{workload}/{seed}: reference with "
                                    f"tampered {part} accepted")


def check_end_to_end(failures: list) -> None:
    refs = check.References()
    entry = refs.get("model_dev", 2021)
    if entry is None:
        failures.append("no model_dev seed 2021 reference to tamper")
        return
    entry["outputs"]["gates"][0][3] += 1
    path = ROOT / ".perfbench_work" / f"tampered-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(refs.data), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", "model_dev", "--seed", "2021", "--seconds", "1",
             "--trace", "0", "--reference", str(path)],
            cwd=ROOT, capture_output=True, text=True, check=False)
    finally:
        path.unlink()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 1 or result.get("correct") is not False:
        failures.append(f"tampered reference: exit {proc.returncode}, "
                        f"result {result.get('correct')!r}")
    elif "reference/gates[0][3]" not in proc.stderr:
        failures.append("tampered reference: mismatch not named")


def check_metric_names(failures: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != printed:
            failures.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(declared) ^ set(printed))}")


def check_uninstall(failures: list) -> None:
    import repro.campaign.runner as runner_mod
    from repro.campaign.journal import RunJournal
    from repro.uarch.core import OoOCore

    before = (runner_mod.synthesize_trace, vars(OoOCore)["simulate"],
              vars(RunJournal)["open"])
    tracer = Tracer()
    install_layers(tracer)
    wrapped = runner_mod.synthesize_trace is not before[0]
    tracer.uninstall()
    after = (runner_mod.synthesize_trace, vars(OoOCore)["simulate"],
             vars(RunJournal)["open"])
    if not wrapped or after != before:
        failures.append("layer wrappers did not install and uninstall")


def check_determinism_log(failures: list) -> None:
    directory = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    log = check.DeterminismLog(directory, "paper_job", 2021, "selftest")
    try:
        first = log.check_and_update({"campaign.runs": 648})
        again = log.check_and_update({"campaign.runs": 648,
                                      "campaign.guest_runs": 499})
        changed = log.check_and_update({"campaign.guest_runs": 498})
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if first or again or not changed:
        failures.append("determinism log: repeated counts rejected or a "
                        "changed count accepted")


def main() -> int:
    failures = []
    check_references(failures)
    check_metric_names(failures)
    check_uninstall(failures)
    check_determinism_log(failures)
    check_end_to_end(failures)
    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print("selftest: ok" if not failures else
          f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
