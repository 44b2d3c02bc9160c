"""Deterministic fault plans: seeded, stateless harness-fault sampling.

A :class:`FaultPlan` is a pure value: every fault decision is a
stateless hash of ``(plan seed, fault stream, decision key)``, so the
same plan injects the same faults at the same places in every process
that evaluates it — coordinator, forked workers, and each supervised
restart (the *incarnation* participates in filesystem-fault rolls so a
torn write does not deterministically re-tear forever, while worker
kills are bounded by the retry attempt instead).

The plan is JSON round-trippable (:meth:`to_dict` / :meth:`from_dict`)
because the supervisor ships it to campaign subprocesses through an
environment variable (see :mod:`repro.chaos.supervisor`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Artifact classes the filesystem shim can target.  "artifact" is the
#: unified content-addressed store's default write class (objects and
#: refs that are not journals/cache entries/pages).
FS_TARGETS = ("journal", "cache", "store", "page", "artifact")

#: Fault kinds the filesystem shim understands, per write/read.
FS_KINDS = ("eio", "enospc", "torn", "bitrot")


def _roll(seed: int, *parts: object) -> float:
    """Stateless uniform [0, 1) draw from a named decision stream."""
    blob = "|".join([str(seed)] + [str(part) for part in parts])
    digest = hashlib.sha256(blob.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """One campaign's worth of deterministically sampled harness faults.

    - ``worker_kill_rate``: probability that a run key gets its worker
      SIGKILLed before entering the guest; ``max_worker_kills`` bounds
      how many consecutive attempts die (keep it <= the executor's
      ``max_retries`` or the run is abandoned and the differential
      breaks — kills are harness failures, retried with backoff).
    - ``coordinator_kills``: journal-record counts after which each
      incarnation's coordinator is SIGKILLed (incarnation *i* dies
      after ``coordinator_kills[i]`` records; past the end of the
      tuple the coordinator runs to completion).
    - ``fs_rates``: ``{target: {kind: rate}}`` per-write fault
      probabilities for the filesystem shim, targets/kinds from
      :data:`FS_TARGETS` / :data:`FS_KINDS`.
    - ``fault_incarnations``: incarnations >= this run fault-free, so a
      supervised campaign always converges to a complete journal.
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    max_worker_kills: int = 1
    coordinator_kills: Tuple[int, ...] = ()
    fs_rates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fault_incarnations: int = 1_000_000

    def __post_init__(self):
        if not 0.0 <= self.worker_kill_rate <= 1.0:
            raise ValueError(
                f"worker_kill_rate must be in [0, 1], got "
                f"{self.worker_kill_rate}")
        if self.max_worker_kills < 0:
            raise ValueError("max_worker_kills must be >= 0")
        for target, kinds in self.fs_rates.items():
            if target not in FS_TARGETS:
                raise ValueError(
                    f"unknown fs target {target!r} "
                    f"(expected one of {', '.join(FS_TARGETS)})")
            for kind, rate in kinds.items():
                if kind not in FS_KINDS:
                    raise ValueError(
                        f"unknown fs fault kind {kind!r} "
                        f"(expected one of {', '.join(FS_KINDS)})")
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(
                        f"fs rate {target}:{kind} must be in [0, 1], "
                        f"got {rate}")

    # -- decisions ---------------------------------------------------------------
    def worker_kills(self, run_key: str) -> int:
        """How many attempts of this run die pre-guest (0 = none).

        Incarnation-independent on purpose: the kill count is bounded
        by the *attempt* number the executor passes to each worker, so
        progress is guaranteed by retry accounting, not restarts.
        """
        if self.worker_kill_rate <= 0.0 or self.max_worker_kills <= 0:
            return 0
        if _roll(self.seed, "worker", run_key) >= self.worker_kill_rate:
            return 0
        extra = _roll(self.seed, "worker_n", run_key)
        return 1 + int(extra * self.max_worker_kills) % self.max_worker_kills

    def coordinator_kill_after(self, incarnation: int) -> Optional[int]:
        """Journal records this incarnation survives, or None (no kill)."""
        if 0 <= incarnation < len(self.coordinator_kills):
            return int(self.coordinator_kills[incarnation])
        return None

    def fs_fault(self, target: str, key: str,
                 incarnation: int) -> Optional[str]:
        """The fault kind (if any) for one IO, or None.

        ``key`` identifies the IO (content hash); the incarnation is
        folded in so a faulted IO is sampled afresh after a restart —
        the convergence argument for supervised campaigns.
        """
        kinds = self.fs_rates.get(target)
        if not kinds:
            return None
        for kind in sorted(kinds):
            rate = kinds[kind]
            if rate > 0.0 and _roll(self.seed, "fs", target, kind, key,
                                    incarnation) < rate:
                return kind
        return None

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "worker_kill_rate": self.worker_kill_rate,
            "max_worker_kills": self.max_worker_kills,
            "coordinator_kills": list(self.coordinator_kills),
            "fs_rates": {t: dict(k) for t, k in self.fs_rates.items()},
            "fault_incarnations": self.fault_incarnations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            worker_kill_rate=float(data.get("worker_kill_rate", 0.0)),
            max_worker_kills=int(data.get("max_worker_kills", 1)),
            coordinator_kills=tuple(
                int(n) for n in data.get("coordinator_kills", ())),
            fs_rates={t: {k: float(r) for k, r in kinds.items()}
                      for t, kinds in (data.get("fs_rates") or {}).items()},
            fault_incarnations=int(data.get("fault_incarnations",
                                            1_000_000)),
        )
