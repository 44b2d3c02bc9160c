"""Append-only run journals: checkpoint/resume for injection campaigns.

Every injection run is keyed by the *name of the RNG stream that drives
it* — ``{workload}/{model}/{point}/{run_index}`` under the campaign root
seed.  Because every stochastic decision of a run (plan, placement,
masking) draws exclusively from that stream, the key fully determines the
run's outcome: a journal line *is* the run, and replaying a journal into
an :class:`~repro.campaign.outcomes.OutcomeCounts` is bit-identical to
re-executing the runs it records.  That is the executor's determinism
contract, and what makes a killed campaign resumable.

The journal is a JSONL file written one line per event.  Line types:

- ``meta``          — journal version + campaign root seed (first line),
- ``model``         — once per (workload, model): what a replay needs
  that run lines lack — the workload's scale, the wall-clock timeout
  and the model's content digest (see ``repro explain``),
- ``run``           — one classified injection run (guest outcome),
- ``harness_error`` — a harness-side failure (exception *outside* the
  guest boundary), kept distinct from guest outcomes and never counted,
- ``cell``          — summary written when a campaign cell completes,
- ``stop``          — the stop-decision provenance of an adaptively
  sampled cell (format version 3): rule, n-at-stop, the anytime-valid
  interval and its target, so a resumed campaign can prove it
  reproduced the identical decision.

Durability (journal format version 2):

- every line carries a CRC32 of its canonical payload, so silent
  corruption (bit-rot, torn appends) is *detected* on load — a bad line
  is quarantined (skipped and counted), never replayed as data, and the
  executor simply re-runs the missing index.  :func:`read_journal` is
  the one reader, so resume, the canonical form, the shard merge and
  the replayed views all quarantine alike;
- a configurable fsync policy bounds what a power cut can lose:
  ``"group"`` (the default) fsyncs every ``fsync_every`` records or
  ``fsync_interval`` seconds, ``"always"`` fsyncs per record, and
  ``"close"`` reproduces the historical flush-only behaviour;
- an append that fails with ``OSError`` (a full or failing disk — or
  the chaos shim pretending to be one) is absorbed: the record stays in
  memory for this process, a recovery newline isolates any torn tail,
  and a later ``--resume`` pass re-executes the lost index.  Version-1
  journals (no CRC) are rejected: start a new journal.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.utils import durable

#: Group-commit defaults: an fsync at most every N records or S seconds
#: of journal activity.  At campaign run rates this keeps the fsync cost
#: well under the per-run guest execution while bounding what a power
#: cut can lose to a small window (versus everything under flush-only).
FSYNC_EVERY = 64
FSYNC_INTERVAL = 0.05

#: Accepted ``fsync`` policies of :class:`RunJournal`.
FSYNC_POLICIES = ("group", "always", "close")

_KEY_COMPONENTS = ("workload", "model", "point")


def run_key(workload: str, model: str, point: str, run_index: int) -> str:
    """The journal key of one run == the name of its RNG stream.

    Component names are validated: a ``/`` (or newline, or emptiness)
    inside a workload/model/point name would silently alias distinct
    journal keys and RNG streams, corrupting resume and determinism.
    """
    for kind, value in zip(_KEY_COMPONENTS, (workload, model, point)):
        if (not isinstance(value, str) or not value
                or "/" in value or "\n" in value or "\r" in value):
            raise ValueError(
                f"invalid {kind} name {value!r} in run key: names must be "
                f"non-empty strings without '/' or newlines (they are "
                f"joined with '/' into journal keys and RNG stream names)"
            )
    return f"{workload}/{model}/{point}/{run_index}"


def _payload_crc(payload: dict) -> int:
    """CRC32 over the canonical JSON dump of a payload (sans ``crc``)."""
    blob = json.dumps({k: v for k, v in payload.items() if k != "crc"},
                      sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF


class JournalMismatch(ValueError):
    """The journal on disk belongs to another campaign seed or is in a
    format no longer read."""


def _crc_ok(payload: dict) -> bool:
    """Whether a loaded line carries a CRC that matches its payload.

    A missing CRC fails too: bit-rot can mutate the key itself
    (``"crc"`` → ``"c2c"`` is a single-bit flip).
    """
    return payload.get("crc") == _payload_crc(payload)


@dataclass
class RunRecord:
    """One classified injection run, as journaled.

    ``outcome`` is the :class:`~repro.campaign.outcomes.Outcome` value
    string; ``unexpected`` carries the repr of a guest exception that was
    not in ``CRASH_EXCEPTIONS`` (classified Crash, but kept visible).
    """

    workload: str
    model: str
    point: str
    run_index: int
    outcome: str
    injected: bool = True
    uarch_masked: int = 0
    watchdog: bool = False
    unexpected: Optional[str] = None
    wall_ms: float = 0.0
    retries: int = 0
    #: Horvitz–Thompson importance weight of the sampled victim relative
    #: to uniform placement; 1.0 for every uniformly-sampling model.
    weight: float = 1.0

    @classmethod
    def from_payload(cls, payload: dict) -> "RunRecord":
        """The record of a journal ``run`` line (extra keys ignored)."""
        return cls(**{k: payload[k] for k in cls.__dataclass_fields__
                      if k in payload})

    @property
    def key(self) -> str:
        return run_key(self.workload, self.model, self.point,
                       self.run_index)

    @property
    def cell(self) -> Tuple[str, str, str]:
        return (self.workload, self.model, self.point)


#: ``(workload, model, point)`` — one campaign cell.
CellKey = Tuple[str, str, str]
#: ``(workload, model, point, run_index)`` — one run.
RunKey = Tuple[str, str, str, int]


@dataclass
class JournalContents:
    """What a journal file verifiably holds (see :func:`read_journal`).

    ``runs`` maps run keys to run-line payloads; ``models`` maps
    ``(workload, model)`` to its model-line payload; ``cells`` and ``stops``
    map cell keys to the cell-summary and stop-decision payloads.  The
    last line of a key wins (resume and heal passes re-append), and keys
    keep the order they first appeared in.  ``torn`` and
    ``crc_failures`` count the quarantined lines.
    """

    seed: Optional[int] = None
    #: ``(workload, model)`` -> the replay spec of its ``model`` line.
    models: Dict[Tuple[str, str], dict] = field(default_factory=dict)
    runs: Dict[RunKey, dict] = field(default_factory=dict)
    cells: Dict[CellKey, dict] = field(default_factory=dict)
    stops: Dict[CellKey, dict] = field(default_factory=dict)
    harness_errors: List[dict] = field(default_factory=list)
    torn: int = 0
    crc_failures: int = 0


def read_journal(path: Union[str, Path]) -> JournalContents:
    """Parse, verify and index one journal file.

    The only journal reader: resume, :func:`canonical_journal`, the
    shard merge and the replayed campaign views all read through it, so
    every one of them sees the same runs.  A torn line (a kill
    mid-write), a line that is not a JSON object and a run line missing
    a key field count as ``torn``; a line whose CRC disowns it (bit-rot)
    counts as a CRC failure.  Both are quarantined — dropped, never read
    as data.  A version-1 journal (its meta line has no CRC) and a
    journal whose meta lines disagree on the seed raise
    :class:`JournalMismatch`.
    """
    contents = JournalContents()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = None
            if not isinstance(payload, dict):
                contents.torn += 1
                continue
            kind = payload.get("type")
            if (kind == "meta" and "crc" not in payload
                    and payload.get("version") == 1):
                raise JournalMismatch(
                    f"journal {path} is a version-1 journal without "
                    f"checksums, which is no longer read; start a new "
                    f"journal")
            if not _crc_ok(payload):
                contents.crc_failures += 1
                continue
            cell = (payload.get("workload"), payload.get("model"),
                    payload.get("point"))
            if kind == "meta":
                if contents.seed is None:
                    contents.seed = payload.get("seed")
                elif payload.get("seed") != contents.seed:
                    raise JournalMismatch(
                        f"journal {path} mixes seeds {contents.seed} "
                        f"and {payload.get('seed')}")
            elif kind == "run":
                try:
                    key = (payload["workload"], payload["model"],
                           payload["point"], int(payload["run_index"]))
                except (KeyError, TypeError, ValueError):
                    contents.torn += 1
                    continue
                contents.runs[key] = payload
            elif kind == "model":
                contents.models[cell[:2]] = payload
            elif kind == "cell":
                contents.cells[cell] = payload
            elif kind == "stop":
                contents.stops[cell] = payload
            elif kind == "harness_error":
                contents.harness_errors.append(payload)
    return contents


class RunJournal:
    """Append-only JSONL journal of a campaign's runs.

    Open with ``resume=True`` to load existing records and append after
    them; with ``resume=False`` (the default) an existing file is
    truncated and the campaign starts clean.  ``fsync`` selects the
    durability policy (see the module docstring).
    """

    VERSION = 3

    def __init__(self, path: Union[str, Path], seed: int,
                 resume: bool = False, fsync: str = "group",
                 fsync_every: int = FSYNC_EVERY,
                 fsync_interval: float = FSYNC_INTERVAL):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r} "
                f"(expected one of {', '.join(FSYNC_POLICIES)})")
        self.path = Path(path)
        self.seed = int(seed)
        self.fsync = fsync
        self.fsync_every = max(1, int(fsync_every))
        self.fsync_interval = float(fsync_interval)
        self.stats: Dict[str, int] = {
            "records": 0, "fsyncs": 0, "write_errors": 0,
            "crc_failures": 0,
        }
        self._runs: Dict[CellKey, Dict[int, RunRecord]] = {}
        #: ``(workload, model)`` -> its journaled ``model`` line.
        self.models: Dict[Tuple[str, str], dict] = {}
        self._since_fsync = 0
        self._last_fsync = time.monotonic()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = resume and self.path.exists() and (
            self.path.stat().st_size > 0
        )
        if existing:
            self._load()
            self._fh = open(self.path, "ab")
        else:
            self._fh = open(self.path, "wb")
            self._write({"type": "meta", "version": self.VERSION,
                         "seed": self.seed})

    @classmethod
    def open(cls, path: Union[str, Path], seed: int,
             resume: bool = False, fsync: str = "group") -> "RunJournal":
        return cls(path, seed, resume=resume, fsync=fsync)

    # -- writing ---------------------------------------------------------------
    def _do_fsync(self) -> None:
        os.fsync(self._fh.fileno())
        self.stats["fsyncs"] += 1
        self._since_fsync = 0
        self._last_fsync = time.monotonic()

    def _maybe_fsync(self) -> None:
        if self.fsync == "close":
            return
        if self.fsync == "always":
            self._do_fsync()
            return
        if (self._since_fsync >= self.fsync_every
                or time.monotonic() - self._last_fsync
                >= self.fsync_interval):
            self._do_fsync()

    def _write(self, payload: dict) -> None:
        line = dict(payload)
        line["crc"] = _payload_crc(payload)
        data = (json.dumps(line, separators=(",", ":")) + "\n").encode()
        written, failure = durable.get_fault_hook().filter_write(
            "journal", str(self.path), data)
        try:
            self._fh.write(written)
            self._fh.flush()
            if failure is not None:
                raise failure
        except OSError:
            # The record is lost on disk but kept in memory: this
            # process keeps its exact results, and a resume pass simply
            # re-executes the missing index.  A recovery newline keeps a
            # torn tail from gluing onto the next record.
            self.stats["write_errors"] += 1
            try:
                self._fh.write(b"\n")
                self._fh.flush()
            except OSError:  # pragma: no cover - disk still failing
                pass
            return
        self.stats["records"] += 1
        self._since_fsync += 1
        self._maybe_fsync()
        durable.get_fault_hook().on_journal_record(str(self.path))

    def record_run(self, record: RunRecord) -> None:
        payload = {"type": "run", "seed": self.seed}
        payload.update(asdict(record))
        self._write(payload)
        self._runs.setdefault(record.cell, {})[record.run_index] = record

    def record_model(self, workload: str, model: str, scale: str,
                     digest: Optional[str],
                     wall_clock_timeout: Optional[float]) -> None:
        """Journal what replaying a model's runs needs (see
        :attr:`models` for the lines already journaled)."""
        payload = {"type": "model", "workload": workload, "model": model,
                   "scale": scale, "digest": digest,
                   "wall_clock_timeout": wall_clock_timeout}
        self._write(payload)
        self.models[(workload, model)] = payload

    def record_harness_error(self, key: str, attempt: int,
                             error: str) -> None:
        payload = {"type": "harness_error", "key": key,
                   "attempt": attempt, "error": error}
        self._write(payload)

    def record_cell(self, result) -> None:
        """Summarise a completed cell (a ``CampaignResult``-shaped object)."""
        counts = {o.value: n for o, n in result.counts.counts.items()}
        payload = {
            "type": "cell", "workload": result.workload,
            "model": result.model, "point": result.point,
            "runs": result.counts.total, "counts": counts,
            "error_ratio": result.error_ratio, "avm": result.avm,
            "degraded": bool(getattr(result, "degraded", False)),
        }
        self._write(payload)

    def record_stop(self, workload: str, model: str, point: str,
                    decision) -> None:
        """Journal the stop-decision provenance of an adaptive cell.

        ``decision`` is a ``StopDecision``-shaped object (anything with a
        ``to_dict``).  A resumed campaign re-derives the decision from the
        replayed run prefix and journals it again; ``canonical_journal``
        keeps the last occurrence, so resume must reproduce the same
        decision to stay canonical-equal to the uninterrupted run.
        """
        payload = {"type": "stop", "workload": workload, "model": model,
                   "point": point}
        payload.update(decision.to_dict())
        self._write(payload)

    # -- reading ---------------------------------------------------------------
    def _load(self) -> None:
        contents = read_journal(self.path)
        if contents.seed is not None and contents.seed != self.seed:
            raise JournalMismatch(
                f"journal {self.path} was written for seed "
                f"{contents.seed}, not {self.seed}")
        self.stats["crc_failures"] = contents.crc_failures
        self.models = dict(contents.models)
        for payload in contents.runs.values():
            record = RunRecord.from_payload(payload)
            self._runs.setdefault(record.cell, {})[record.run_index] = record

    def completed_runs(self, workload: str, model: str,
                       point: str) -> Dict[int, RunRecord]:
        """Journaled runs of one cell, keyed by run index."""
        return dict(self._runs.get((workload, model, point), {}))

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = sum(len(v) for v in self._runs.values())
        return (f"RunJournal(path={str(self.path)!r}, seed={self.seed}, "
                f"runs={total})")


def canonical_journal(path: Union[str, Path]) -> str:
    """Canonical, fault-invariant rendering of a journal file.

    The equivalence form of the chaos differential: two campaigns of the
    same cells are *the same campaign* iff their canonical journals are
    byte-identical.  Canonicalisation drops everything faults may
    legitimately perturb without changing the data — per-run wall
    clocks, retry counts, CRCs, harness-error lines, the meta line,
    corrupt/torn lines — keeps the last occurrence of each run, cell
    and stop (a heal pass may re-append any), and sorts by key.
    """
    contents = read_journal(path)

    def dump(payload: dict, drop=("crc",)) -> str:
        return json.dumps({k: v for k, v in payload.items()
                           if k not in drop},
                          sort_keys=True, separators=(",", ":"))

    lines = [dump(contents.runs[key], ("wall_ms", "retries", "crc"))
             for key in sorted(contents.runs)]
    lines += [dump(contents.cells[key]) for key in sorted(contents.cells)]
    lines += [dump(contents.stops[key]) for key in sorted(contents.stops)]
    return "\n".join(lines) + ("\n" if lines else "")
