"""Correctness and determinism checks of the benchmark's outputs.

- :func:`diff` compares outputs with a recorded reference and names
  every path that differs.
- :class:`References` holds the outputs (and exact counts) recorded in
  ``reference.json`` per workload and seed.
- :class:`DeterminismLog` keeps the count-valued metrics of earlier runs
  of the same code and seed in the work directory, so a later run that
  counts differently fails.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


def diff(expected, actual, path: str = "") -> List[str]:
    """Every place where ``actual`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual), key=str):
            where = f"{path}/{key}"
            if key not in actual:
                out.append(f"{where}: missing")
            elif key not in expected:
                out.append(f"{where}: unexpected")
            else:
                out.extend(diff(expected[key], actual[key], where))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(actual)} items, expected {len(expected)}"]
        out = []
        for index, (e, a) in enumerate(zip(expected, actual)):
            out.extend(diff(e, a, f"{path}[{index}]"))
        return out
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: {actual!r}, expected {expected!r}"]
    return []


def normalise(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def shared_diff(expected: Dict[str, int], actual: Dict[str, int]) -> List[str]:
    """Differences on the keys both count sets hold."""
    return [f"{key}: {actual[key]}, expected {expected[key]}"
            for key in sorted(set(expected) & set(actual))
            if expected[key] != actual[key]]


class References:
    """Recorded outputs per (workload, seed)."""

    def __init__(self, path: Path = REFERENCE_FILE):
        self.path = Path(path)
        self.data = (json.loads(self.path.read_text(encoding="utf-8"))
                     if self.path.exists() else {})

    def get(self, workload: str, seed: int) -> Optional[dict]:
        return self.data.get(workload, {}).get(str(seed))

    def record(self, workload: str, seed: int, outputs: dict,
               counts: Dict[str, int]) -> None:
        self.data.setdefault(workload, {})[str(seed)] = {
            "outputs": normalise(outputs),
            "counts": dict(sorted(counts.items()))}
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")

    def check(self, workload: str, seed: int, outputs: dict,
              counts: Dict[str, int]) -> List[str]:
        """Mismatches against the reference; empty when none is recorded."""
        entry = self.get(workload, seed)
        if entry is None:
            return []
        problems = [f"reference{p}"
                    for p in diff(entry["outputs"], normalise(outputs))]
        problems += [f"reference count {p}"
                     for p in shared_diff(entry["counts"], counts)]
        return problems


def code_digest(*roots: Path) -> str:
    """Content hash of every Python file under ``roots``."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class DeterminismLog:
    """Count-valued metrics of earlier runs, keyed by code and seed."""

    def __init__(self, directory: Path, workload: str, seed: int,
                 code: str):
        self.path = directory / f"{workload}-{seed}-{code}.json"

    def check_and_update(self, counts: Dict[str, int]) -> List[str]:
        """Compare with earlier runs, then remember any new keys."""
        known = {}
        if self.path.exists():
            known = json.loads(self.path.read_text(encoding="utf-8"))
        problems = [f"count differs from an earlier run: {p}"
                    for p in shared_diff(known, counts)]
        if not problems and not set(counts) <= set(known):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps({**known, **counts}, sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, self.path)
        return problems
