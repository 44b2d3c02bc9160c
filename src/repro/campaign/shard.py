"""Sharded campaign coordination over the unified artifact store.

Lifts the single-process :class:`~repro.campaign.executor.CampaignExecutor`
to fleet shape: a campaign's cells (model × operating point) are
partitioned by RNG stream key into N shards, fed to workers from a
durable work queue with lease/heartbeat work-stealing, and the per-cell
journals are merged content-addressably into one canonical journal that
is — provably, see ``tests/campaign/test_shard_differential.py`` —
bit-identical to an unsharded run.

Why cells are the sharding granule
----------------------------------
Every run draws exclusively from the RNG stream named by its journal key
``{workload}/{model}/{point}/{run_index}`` under the campaign seed, so a
cell's outcome stream is a pure function of the campaign spec — no state
crosses cell boundaries (the CLI adaptive path evaluates each cell's
stopping rule independently, with no cross-cell reallocation).  Any
assignment of whole cells to any workers therefore commits exactly the
runs the single-process campaign would commit, byte for byte.

Crash/steal convergence
-----------------------
Each work item journals into its own stream
(``streams/journals/<campaign>/<item>.jsonl`` in the artifact store) and
is always executed with ``resume=True``: a worker that re-runs a cell —
after a SIGKILL, or after stealing an expired lease — replays the
committed prefix bit-identically and continues.  Even the pathological
double-writer (a live worker whose lease was stolen on TTL) converges:
both writers append byte-identical records for the same keys, torn
interleavings are quarantined by the journal CRCs, and the merge keeps
one record per key.  Leases are broken only when the owner pid is dead
or the heartbeat has expired.

Merging
-------
:func:`merge_journals` rejects overlapping run keys across shards (two
items may never share a cell — overlap means a corrupted queue, not a
mergeable state), skips torn/CRC-failing lines exactly as resume does,
tolerates empty shards, and emits records in canonical key order, so
the merged bytes are invariant to merge order.  The coordinator then
freezes every input journal and the merged result into the
content-addressed object layer with a manifest ref, making the merge
itself verifiable after the fact.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.artifacts import ArtifactStore, encode_key
from repro.campaign.adaptive import AdaptiveConfig, ImportanceModel
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.fastforward import FastForwardConfig
from repro.campaign.journal import RunJournal, _payload_crc, read_journal
from repro.campaign.runner import CampaignRunner
from repro.circuit.liberty import OperatingPoint
from repro.errors import store as model_store
from repro.observe.state import CellBegun, RunClassified, ShardStatus
from repro.utils import durable
from repro.workloads import make_workload

PathLike = Union[str, Path]

SPEC_VERSION = 1

#: Artifact-store namespaces owned by the sharding subsystem.  Distinct
#: from "model-cache" and "pages", so campaign keys can never alias a
#: cache entry or a snapshot page sharing the same backend.
NS_CAMPAIGNS = "campaigns"
NS_MODELS = "campaign-models"
NS_JOURNALS = "journals"

#: A lease whose heartbeat is older than this is stealable even if the
#: owner pid looks alive (a hung worker holds no work hostage forever).
DEFAULT_LEASE_TTL = 60.0


class ShardError(RuntimeError):
    """A coordination failure (spec mismatch, queue corruption)."""


class MergeConflict(ShardError):
    """Per-shard journals cannot be merged into one campaign."""


def cell_shard(workload: str, model: str, point: str, shards: int) -> int:
    """The shard owning a cell: a stable hash of its RNG stream prefix.

    The prefix ``{workload}/{model}/{point}`` is the name every one of
    the cell's RNG streams starts with, so the partition is a pure
    function of the campaign spec — stable across processes, hosts and
    Python hash randomisation.
    """
    prefix = f"{workload}/{model}/{point}"
    digest = hashlib.sha256(prefix.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % max(1, shards)


# ---------------------------------------------------------------------------
# Campaign spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignSpec:
    """Everything a shard worker needs to reproduce its share of a
    campaign, as plain JSON-able values.

    Staged models are referenced by name — the bytes live in the
    artifact store under ``campaign-models/<campaign_id>/<name>`` — so
    the spec stays tiny and workers on any host with the store see the
    exact characterised artifacts the coordinator staged.
    """

    campaign_id: str
    benchmark: str
    seed: int
    runs: int
    shards: int
    points: Tuple[dict, ...]
    models: Tuple[str, ...]
    scale: str = "tiny"
    adaptive: Optional[dict] = None
    fastforward: dict = field(default_factory=lambda:
                              FastForwardConfig().to_dict())
    executor: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not self.campaign_id or "/" in self.campaign_id:
            raise ValueError(
                f"campaign id {self.campaign_id!r} must be a non-empty "
                f"name without '/'")

    def to_dict(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "campaign_id": self.campaign_id,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "seed": self.seed,
            "runs": self.runs,
            "shards": self.shards,
            "points": list(self.points),
            "models": list(self.models),
            "adaptive": self.adaptive,
            "fastforward": dict(self.fastforward),
            "executor": dict(self.executor),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        version = data.get("version")
        if version != SPEC_VERSION:
            raise ShardError(
                f"unsupported campaign spec version {version!r}")
        return cls(
            campaign_id=data["campaign_id"],
            benchmark=data["benchmark"],
            scale=data.get("scale", "tiny"),
            seed=int(data["seed"]),
            runs=int(data["runs"]),
            shards=int(data["shards"]),
            points=tuple(data["points"]),
            models=tuple(data["models"]),
            adaptive=data.get("adaptive"),
            fastforward=dict(data.get("fastforward") or
                             FastForwardConfig().to_dict()),
            executor=dict(data.get("executor") or {}),
        )

    # -- store round trip --------------------------------------------------------
    def save(self, store: ArtifactStore) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          indent=2).encode()
        return store.put(NS_CAMPAIGNS, f"{self.campaign_id}/spec", blob)

    @classmethod
    def load(cls, store: ArtifactStore,
             campaign_id: str) -> "CampaignSpec":
        blob = store.get(NS_CAMPAIGNS, f"{campaign_id}/spec")
        if blob is None:
            raise ShardError(
                f"campaign {campaign_id!r} has no spec in the store")
        return cls.from_dict(json.loads(blob.decode()))

    # -- derived -----------------------------------------------------------------
    def items(self) -> List[dict]:
        """One work item per campaign cell, tagged with its home shard."""
        out = []
        for model in self.models:
            for point in self.points:
                item_id = f"{model}--{point['name']}"
                out.append({
                    "id": item_id,
                    "workload": self.benchmark,
                    "model": model,
                    "point": dict(point),
                    "shard": cell_shard(self.benchmark, model,
                                        point["name"], self.shards),
                })
        return out

    @staticmethod
    def point_dict(point: OperatingPoint) -> dict:
        return {"name": point.name, "voltage": point.voltage,
                "temperature_c": point.temperature_c}

    # -- what the cells run on ---------------------------------------------------
    # The one place a spec becomes live objects: `repro campaign` and
    # every shard worker build their runner, models and configs here, so
    # journal keys, weights and outcomes cannot drift between them.
    @staticmethod
    def item_point(item: dict) -> OperatingPoint:
        point = item["point"]
        return OperatingPoint(name=point["name"], voltage=point["voltage"],
                              temperature_c=point.get("temperature_c",
                                                      25.0))

    def adaptive_config(self) -> Optional[AdaptiveConfig]:
        """The cells' adaptive config, or None for fixed-N cells."""
        return None if self.adaptive is None else AdaptiveConfig(
            **self.adaptive)

    def make_runner(self) -> CampaignRunner:
        return CampaignRunner(
            make_workload(self.benchmark, scale=self.scale, seed=self.seed),
            seed=self.seed,
            fastforward=FastForwardConfig.from_dict(self.fastforward))

    def cell_model(self, model):
        """The model a cell injects: importance sampling wraps the
        characterised model wherever the cell runs."""
        if self.adaptive is not None and self.adaptive.get("importance"):
            return ImportanceModel(model)
        return model

    def executor_config(self, journal_path: Optional[str],
                        resume: bool) -> ExecutorConfig:
        return ExecutorConfig(
            workers=int(self.executor.get("workers", 0)),
            wall_clock_timeout=self.executor.get("wall_clock_timeout"),
            journal_path=journal_path,
            resume=resume,
            fsync=self.executor.get("fsync", "group"),
        )


def stage_model(store: ArtifactStore, campaign_id: str, model) -> None:
    """Freeze a characterised model into the store for shard workers."""
    key = f"{campaign_id}/{model.name}"
    store.put(NS_MODELS, key, model_store.dumps_model(model),
              target="store")


def load_staged_model(store: ArtifactStore, campaign_id: str, name: str):
    blob = store.get(NS_MODELS, f"{campaign_id}/{name}")
    if blob is None:
        raise ShardError(
            f"model {name!r} of campaign {campaign_id!r} is not staged")
    return model_store.loads_model(blob)


# ---------------------------------------------------------------------------
# Durable work queue
# ---------------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return pid > 0


class WorkQueue:
    """Filesystem-backed work queue with leases, heartbeats and stealing.

    Layout under ``<store root>/queue/<campaign>/``:

    - ``items/<id>.json``  — the immutable work item (atomic write),
    - ``leases/<id>.json`` — the claim: owner, pid, heartbeat time.
      Created with ``O_EXCL`` so exactly one claimer wins; renewed by
      atomic replace on every completed run,
    - ``done/<id>.json``   — the completion marker with the item's
      result summary (atomic write; presence is the commit point).

    A lease is *stale* — and its item stealable — when the owner pid is
    gone or the heartbeat is older than ``lease_ttl``.  Stealing is
    unlink + ``O_EXCL`` re-create: rival stealers race on the create
    and exactly one wins.  Everything is idempotent: re-running a
    stolen item resumes its journal and re-derives identical records.
    """

    def __init__(self, store: ArtifactStore, campaign_id: str,
                 lease_ttl: float = DEFAULT_LEASE_TTL):
        root = store.local_root
        if root is None:
            raise ShardError("the work queue needs a local store")
        self.store = store
        self.campaign_id = campaign_id
        self.lease_ttl = lease_ttl
        self.root = root / "queue" / encode_key(campaign_id)
        self.items_dir = self.root / "items"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        for directory in (self.items_dir, self.leases_dir,
                          self.done_dir):
            directory.mkdir(parents=True, exist_ok=True)
            durable.sweep_orphan_tmps(directory)

    # -- population --------------------------------------------------------------
    def populate(self, items: Iterable[dict]) -> None:
        """Write item files, skipping ones that already exist (resume)."""
        for item in items:
            path = self.items_dir / f"{encode_key(item['id'])}.json"
            if path.exists():
                continue
            durable.atomic_write_bytes(
                path, json.dumps(item, sort_keys=True).encode())

    def items(self) -> List[dict]:
        out = []
        for path in sorted(self.items_dir.glob("*.json")):
            try:
                out.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue
        return out

    # -- lease protocol ----------------------------------------------------------
    def _lease_path(self, item_id: str) -> Path:
        return self.leases_dir / f"{encode_key(item_id)}.json"

    def _done_path(self, item_id: str) -> Path:
        return self.done_dir / f"{encode_key(item_id)}.json"

    def lease_info(self, item_id: str) -> Optional[dict]:
        try:
            return json.loads(self._lease_path(item_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _lease_stale(self, lease: Optional[dict]) -> bool:
        if lease is None:
            return True  # unreadable/torn lease: treat as abandoned
        if not _pid_alive(int(lease.get("pid", -1))):
            return True
        return time.time() - float(lease.get("time", 0)) > self.lease_ttl

    def _lease_payload(self, item_id: str, worker_id: str,
                       progress: Optional[dict] = None) -> bytes:
        return json.dumps({
            "item": item_id, "worker": worker_id, "pid": os.getpid(),
            "time": time.time(), "progress": progress or {},
        }).encode()

    def _try_acquire(self, item_id: str, worker_id: str) -> bool:
        path = self._lease_path(item_id)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            lease = self.lease_info(item_id)
            if lease is not None and not self._lease_stale(lease):
                return False
            # Steal: drop the stale lease, then race for the fresh one.
            try:
                os.unlink(path)
            except OSError:
                pass
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except OSError:
                return False  # a rival stealer won
        try:
            os.write(fd, self._lease_payload(item_id, worker_id))
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def claim(self, worker_id: str, prefer_shard: Optional[int] = None,
              steal: bool = True) -> Optional[dict]:
        """Lease one runnable item, or None.

        Items of ``prefer_shard`` are tried first; with ``steal=False``
        only that shard's items are considered at all (the strict
        partition used by in-process shard loops — stealing is what
        subprocess workers do when their own shard drains).
        """
        candidates = [i for i in self.items()
                      if not self._done_path(i["id"]).exists()]
        if prefer_shard is not None:
            mine = [i for i in candidates if i["shard"] == prefer_shard]
            others = [i for i in candidates
                      if i["shard"] != prefer_shard]
            candidates = mine + (others if steal else [])
        for item in candidates:
            if self._try_acquire(item["id"], worker_id):
                if self._done_path(item["id"]).exists():
                    # Raced a completer: the work is already committed.
                    self.release(item["id"])
                    continue
                return item
        return None

    def heartbeat(self, item_id: str, worker_id: str,
                  progress: Optional[dict] = None) -> None:
        """Renew a lease (atomic replace keeps rival readers coherent)."""
        durable.atomic_write_bytes(
            self._lease_path(item_id),
            self._lease_payload(item_id, worker_id, progress))

    def release(self, item_id: str) -> None:
        try:
            os.unlink(self._lease_path(item_id))
        except OSError:
            pass

    def complete(self, item_id: str, worker_id: str,
                 summary: Optional[dict] = None) -> None:
        payload = {"item": item_id, "worker": worker_id,
                   "pid": os.getpid(), "time": time.time(),
                   "summary": summary or {}}
        durable.atomic_write_bytes(self._done_path(item_id),
                                   json.dumps(payload).encode())
        self.release(item_id)

    # -- aggregate views ---------------------------------------------------------
    def all_done(self) -> bool:
        items = self.items()
        return bool(items) and all(
            self._done_path(i["id"]).exists() for i in items)

    def status(self) -> dict:
        """Aggregate queue state: per-shard progress, live leases."""
        items = self.items()
        shards: Dict[int, Dict[str, int]] = {}
        done = 0
        leases = []
        for item in items:
            entry = shards.setdefault(item["shard"],
                                      {"items": 0, "done": 0})
            entry["items"] += 1
            if self._done_path(item["id"]).exists():
                entry["done"] += 1
                done += 1
                continue
            lease = self.lease_info(item["id"])
            if lease is not None:
                leases.append({
                    "item": item["id"], "shard": item["shard"],
                    "worker": lease.get("worker"),
                    "pid": lease.get("pid"),
                    "alive": _pid_alive(int(lease.get("pid", -1))),
                    "stale": self._lease_stale(lease),
                    "progress": lease.get("progress", {}),
                })
        return {
            "campaign": self.campaign_id,
            "items": len(items),
            "done": done,
            "in_flight": len(leases),
            "shards": {str(k): v for k, v in sorted(shards.items())},
            "leases": leases,
        }


# ---------------------------------------------------------------------------
# Shard worker
# ---------------------------------------------------------------------------

class _HeartbeatMonitor:
    """Executor monitor shim: every committed run renews the lease, and
    every event also reaches ``forward`` (an in-process caller's campaign
    state), which the executor must not close."""

    def __init__(self, queue: WorkQueue, item_id: str, worker_id: str,
                 forward=None):
        self.queue = queue
        self.item_id = item_id
        self.worker_id = worker_id
        self.forward = forward
        self.runs = 0

    def apply(self, event) -> None:
        if self.forward is not None:
            self.forward.apply(event)
        if isinstance(event, RunClassified):
            self.runs += 1
            self.queue.heartbeat(self.item_id, self.worker_id,
                                 {"runs": self.runs})
        elif isinstance(event, CellBegun):
            self.runs = sum(event.resumed.values())
            self.queue.heartbeat(self.item_id, self.worker_id,
                                 {"runs": self.runs, "of": event.runs})

    def close(self) -> None:
        pass


def journal_key(campaign_id: str, item_id: str) -> str:
    return f"{campaign_id}/{item_id}.jsonl"


def run_worker(store: Union[ArtifactStore, PathLike], campaign_id: str,
               worker_id: Optional[str] = None,
               shard: Optional[int] = None, steal: bool = True,
               wait: bool = True, poll_interval: float = 0.1,
               runner: Optional[CampaignRunner] = None,
               monitor=None) -> dict:
    """Drain campaign work items through a local executor.

    The worker loop: claim → execute the cell through
    :class:`CampaignExecutor` (journal resumed from any prior attempt)
    → mark done.  With ``wait=True`` the worker lingers while other
    workers hold live leases, stealing anything that goes stale — the
    self-healing path when a sibling shard dies mid-flight.  An
    in-process caller passes its own ``runner`` (built by
    :meth:`CampaignSpec.make_runner`, so the golden run is shared) and a
    ``monitor`` that receives every executor event.  Returns a summary
    of what this worker executed.
    """
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore.local(store)
    spec = CampaignSpec.load(store, campaign_id)
    queue = WorkQueue(store, campaign_id)
    worker_id = worker_id or f"worker-{os.getpid()}"
    adaptive = spec.adaptive_config()
    models: Dict[str, object] = {}
    summary = {"worker": worker_id, "items": 0, "runs": 0, "stolen": 0}
    while True:
        item = queue.claim(worker_id, prefer_shard=shard, steal=steal)
        if item is None:
            if not wait or queue.all_done():
                break
            time.sleep(poll_interval)
            continue
        if shard is not None and item["shard"] != shard:
            summary["stolen"] += 1
        if runner is None:
            runner = spec.make_runner()
        model = models.get(item["model"])
        if model is None:
            model = models[item["model"]] = spec.cell_model(
                load_staged_model(store, campaign_id, item["model"]))
        journal_path = store.stream_path(
            NS_JOURNALS, journal_key(campaign_id, item["id"]))
        # Always resume: re-execution after a steal must heal.
        config = spec.executor_config(str(journal_path), resume=True)
        hb = _HeartbeatMonitor(queue, item["id"], worker_id, monitor)
        with CampaignExecutor(runner, config=config,
                              monitor=hb) as executor:
            result = executor.run_cell(model, spec.item_point(item),
                                       runs=spec.runs, adaptive=adaptive)
        queue.complete(item["id"], worker_id, summary={
            "runs": result.counts.total,
            "avm": result.avm,
            "error_ratio": result.error_ratio,
            "degraded": bool(result.stats.degraded),
            "resumed": result.stats.resumed,
            "executed": result.stats.executed,
        })
        summary["items"] += 1
        summary["runs"] += result.counts.total
    return summary


# ---------------------------------------------------------------------------
# Journal merge
# ---------------------------------------------------------------------------

def _without_crc(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "crc"}


def merge_journals(paths: Sequence[PathLike], out_path: PathLike,
                   seed: int) -> dict:
    """Merge per-shard journals into one canonical campaign journal.

    The output is a genuine format-3 journal (meta line, CRC per line)
    whose canonical form equals the union of its inputs: model lines
    sorted by key, then run records, then cell summaries, then stop
    decisions.  Within a file, later records supersede earlier ones
    (that is resume/heal appending); *across* files any shared run, cell
    or stop key is a :class:`MergeConflict` — two shards may never own
    one cell, so overlap means the queue partition was violated and
    neither record can be trusted.  Every shard that ran a model's cells
    journals the same ``model`` line, so an identical line merges once
    and two different lines for one ``(workload, model)`` conflict.
    Torn or CRC-failing lines are quarantined exactly as journal resume
    quarantines them; empty inputs merge cleanly.  Iteration order over
    ``paths`` never changes the output bytes.
    """
    merged: Dict[str, Dict[tuple, dict]] = {"model": {}, "run": {},
                                             "cell": {}, "stop": {}}
    owners: Dict[Tuple[str, tuple], str] = {}
    report = {"inputs": len(paths), "empty_inputs": 0, "torn_lines": 0,
              "crc_failures": 0, "harness_errors": 0,
              "runs": 0, "cells": 0, "stops": 0}
    for path in sorted(Path(p) for p in paths):
        source = path.name
        try:
            if path.stat().st_size == 0:
                report["empty_inputs"] += 1
                continue
        except OSError:
            report["empty_inputs"] += 1
            continue
        contents = read_journal(path)
        if contents.seed is not None and contents.seed != seed:
            raise MergeConflict(
                f"{source} was journaled for seed {contents.seed}, "
                f"not {seed}")
        report["torn_lines"] += contents.torn
        report["crc_failures"] += contents.crc_failures
        report["harness_errors"] += len(contents.harness_errors)
        for key, payload in contents.models.items():
            owner = owners.setdefault(("model", key), source)
            kept = merged["model"].setdefault(key, payload)
            if _without_crc(kept) != _without_crc(payload):
                raise MergeConflict(
                    f"model {'/'.join(key)} is journaled differently in "
                    f"{owner} and {source}")
        for kind, table in (("run", contents.runs),
                            ("cell", contents.cells),
                            ("stop", contents.stops)):
            for key, payload in table.items():
                previous = owners.setdefault((kind, key), source)
                if previous != source:
                    raise MergeConflict(
                        f"{kind} key {'/'.join(str(k) for k in key)} "
                        f"appears in both {previous} and {source}: shard "
                        f"journals must partition the campaign's cells")
                merged[kind][key] = payload

    lines = [{"type": "meta", "version": RunJournal.VERSION,
              "seed": int(seed)}]
    for table in merged.values():
        lines += [table[key] for key in sorted(table)]
    encoded = []
    for payload in lines:
        body = _without_crc(payload)
        body["crc"] = _payload_crc(body)
        encoded.append(json.dumps(body, sort_keys=True,
                                  separators=(",", ":")))
    durable.atomic_write_bytes(Path(out_path),
                               ("\n".join(encoded) + "\n").encode(),
                               target="journal")
    report.update(runs=len(merged["run"]), cells=len(merged["cell"]),
                  stops=len(merged["stop"]))
    return report


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class ShardCoordinator:
    """Plans, drives and merges one sharded campaign.

    ``create`` is idempotent: re-creating an existing campaign (the
    ``--resume`` path) verifies the stored spec matches and reuses the
    queue — done items stay done, in-flight journals resume.
    """

    def __init__(self, store: ArtifactStore, spec: CampaignSpec):
        self.store = store
        self.spec = spec
        self.queue = WorkQueue(store, spec.campaign_id)

    @classmethod
    def create(cls, store: ArtifactStore, spec: CampaignSpec,
               models: Sequence[object]) -> "ShardCoordinator":
        staged_names = [m.name for m in models]
        if sorted(staged_names) != sorted(spec.models):
            raise ShardError(
                f"staged models {sorted(staged_names)} do not match the "
                f"spec's {sorted(spec.models)}")
        existing = store.get(NS_CAMPAIGNS, f"{spec.campaign_id}/spec")
        if existing is not None:
            stored = CampaignSpec.from_dict(json.loads(existing.decode()))
            if stored.to_dict() != spec.to_dict():
                raise ShardError(
                    f"campaign {spec.campaign_id!r} already exists with "
                    f"a different spec; pick a new id or delete the old "
                    f"campaign to restart it")
        else:
            spec.save(store)
        for model in models:
            stage_model(store, spec.campaign_id, model)
        coordinator = cls(store, spec)
        coordinator.queue.populate(spec.items())
        return coordinator

    # -- execution ---------------------------------------------------------------
    def run_inline(self, steal: bool = False,
                   runner: Optional[CampaignRunner] = None,
                   monitor=None) -> List[dict]:
        """Drive every shard in this process, one logical worker each.

        With ``steal=False`` each worker touches only its own shard's
        items — the strict partition the differential harness compares
        against subprocess geometries.  ``runner`` and ``monitor`` are
        shared by every worker (see :func:`run_worker`).
        """
        return [
            run_worker(self.store, self.spec.campaign_id,
                       worker_id=f"inline-{shard}", shard=shard,
                       steal=steal, wait=False, runner=runner,
                       monitor=monitor)
            for shard in range(self.spec.shards)
        ]

    def worker_argv(self, shard: int) -> List[str]:
        root = self.store.local_root
        return [sys.executable, "-m", "repro", "shard-worker",
                "--store", str(root),
                "--campaign", self.spec.campaign_id,
                "--shard", str(shard),
                "--worker-id", f"shard-{shard}"]

    def run_processes(self, max_restarts: int = 3,
                      poll_interval: float = 0.2,
                      env: Optional[dict] = None,
                      state=None) -> dict:
        """Run one OS-process worker per shard, restarting dead ones.

        A worker that exits while undone work remains (crash, SIGKILL,
        chaos) is respawned up to ``max_restarts`` times per shard; its
        leases go stale and are stolen or resumed either way.  Feeds
        ``state`` (a :class:`~repro.observe.state.CampaignState`) a
        :class:`~repro.observe.state.ShardStatus` on every poll.
        """
        procs: Dict[int, subprocess.Popen] = {}
        restarts = {shard: 0 for shard in range(self.spec.shards)}

        def _spawn(shard: int) -> None:
            procs[shard] = subprocess.Popen(
                self.worker_argv(shard), env=env)

        for shard in range(self.spec.shards):
            _spawn(shard)
        try:
            while not self.queue.all_done():
                for shard, proc in list(procs.items()):
                    code = proc.poll()
                    if code is None or self.queue.all_done():
                        continue
                    if restarts[shard] >= max_restarts:
                        raise ShardError(
                            f"shard {shard} worker died {restarts[shard]}"
                            f" time(s) past the restart budget "
                            f"(last exit {code})")
                    restarts[shard] += 1
                    _spawn(shard)
                if state is not None:
                    state.apply(ShardStatus(self.status()))
                time.sleep(poll_interval)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs.values():
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()
        if state is not None:
            state.apply(ShardStatus(self.status()))
        return {"restarts": dict(restarts)}

    # -- merge + status ----------------------------------------------------------
    def journal_paths(self) -> List[Path]:
        return self.store.list_streams(NS_JOURNALS,
                                       prefix=f"{self.spec.campaign_id}/")

    def merge(self, out_path: PathLike) -> dict:
        """Merge shard journals; freeze inputs + result content-addressably."""
        if not self.queue.all_done():
            status = self.queue.status()
            raise ShardError(
                f"cannot merge: {status['items'] - status['done']} "
                f"item(s) not done (run workers or --resume first)")
        paths = self.journal_paths()
        report = merge_journals(paths, out_path, seed=self.spec.seed)
        manifest = {"campaign": self.spec.campaign_id,
                    "seed": self.spec.seed, "shards": {}}
        for path in paths:
            address = self.store.archive_stream(
                NS_JOURNALS,
                f"{self.spec.campaign_id}/archive/{path.name}", path)
            manifest["shards"][path.name] = address
        manifest["merged"] = self.store.put(
            NS_JOURNALS, f"{self.spec.campaign_id}/merged",
            Path(out_path).read_bytes(), target="journal")
        self.store.put(
            NS_JOURNALS, f"{self.spec.campaign_id}/manifest",
            json.dumps(manifest, sort_keys=True, indent=2).encode())
        report["manifest"] = manifest
        return report

    def status(self) -> dict:
        status = self.queue.status()
        status["shards_total"] = self.spec.shards
        return status
