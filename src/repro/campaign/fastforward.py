"""Checkpointed fast-forward execution of injection runs.

Every cycle before an injection point is fault-free and therefore
identical to the golden run.  This module exploits that: the golden pass
of a checkpointable workload is driven through its step protocol
(:meth:`Workload.initial_state` / :meth:`~Workload.advance` /
:meth:`~Workload.finalize`) exactly once per campaign, recording at every
step boundary the FP-stream position, a canonical state digest and — at
configurable intervals — a copy-on-write snapshot of the workload state.
Each injection run then restores the nearest snapshot whose FP-stream
position precedes *all* of its corruption indices and replays only the
post-injection suffix.

Bit-identity argument (proved empirically by
``tests/campaign/test_fastforward_differential.py``):

1. A snapshot at boundary *b* is valid for a corruption map iff for every
   corrupted op the boundary's per-op counter is <= the op's first victim
   index.  The prefix of a full replay up to *b* then applies no
   corruption, so its state, per-op counters, ``ops_executed`` and
   ``_armed`` flag at *b* equal the golden run's — which is exactly what
   restore reproduces.  The suffix therefore computes the same value
   stream, applies corruption at the same dynamic indices, trips the
   same op-budget timeout and the same armed FP traps.
2. The **early exit**: once every corruption index has been consumed, a
   run whose state digest matches the golden run's at *any* boundary
   (with the same continue/stop decision) can only replay the golden
   tail from that boundary — identical state plus identical remaining
   corruption (none) is a complete determinant of the remaining
   execution — so it returns the golden output without executing the
   tail.  Two side conditions keep this exact: the run's op budget must
   cover the golden tail (otherwise the tail would legitimately trip
   the Timeout budget and the run must replay it), and for trap-enabled
   workloads the *golden trap probe* must have passed: the golden build
   runs with traps armed, and only if the whole golden stream is finite
   (the probe does not fire) is the early exit enabled, since a
   reconverged run executes the golden tail with traps armed.

Non-checkpointable workloads (``Workload.checkpointable`` is False) and
campaigns run with ``--no-snapshots`` fall back to full replay, which
remains the reference semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.uarch.snapshot import (
    PageCorruption,
    PageStore,
    StateImage,
    decode_state,
    encode_state,
    state_digest,
)
from repro.workloads.base import FPContext, Workload
from repro import telemetry

#: Default snapshot spacing, in step-protocol boundaries.  Dense enough
#: that uniformly placed injections skip half their prefix on average,
#: sparse enough that snapshot capture stays a small fraction of the
#: golden run.
DEFAULT_INTERVAL = 7


@dataclass(frozen=True)
class FastForwardConfig:
    """Campaign-level fast-forward knobs.

    ``interval=None`` means "initial snapshot only" (the CLI's
    ``--snapshot-interval inf``): runs still reuse the golden output and
    the early exit, but always replay from the initial state.

    ``page_store_dir`` names a local artifact-store directory to back
    the snapshot pages (the ``pages`` namespace of
    :class:`~repro.artifacts.ArtifactStore`).  Every field is a plain
    value, so the config survives a JSON round trip — shard workers
    receive it inside the campaign spec.
    """

    enabled: bool = True
    interval: Optional[int] = DEFAULT_INTERVAL
    page_store_dir: Optional[str] = None

    def __post_init__(self):
        if self.interval is not None and self.interval < 1:
            raise ValueError(
                f"snapshot interval must be >= 1, got {self.interval}"
            )

    def to_dict(self) -> dict:
        return {"enabled": self.enabled, "interval": self.interval,
                "page_store_dir": self.page_store_dir}

    @classmethod
    def from_dict(cls, data: dict) -> "FastForwardConfig":
        return cls(enabled=bool(data.get("enabled", True)),
                   interval=data.get("interval", DEFAULT_INTERVAL),
                   page_store_dir=data.get("page_store_dir"))

    def make_pages(self) -> PageStore:
        """A page store honouring ``page_store_dir`` (shared when set)."""
        if self.page_store_dir is None:
            return PageStore()
        from repro.artifacts import ArtifactStore

        return PageStore(artifacts=ArtifactStore.local(self.page_store_dir))


@dataclass(frozen=True)
class Boundary:
    """Golden-run facts recorded at one step-protocol boundary.

    Boundary *k* is the state after *k* ``advance`` calls (0 = initial
    state).  ``more`` is whether the golden run called ``advance`` again
    from here — the continue/stop decision is part of the fault-free
    prefix, so it holds for any run restored at this boundary too.
    """

    index: int
    counts: Tuple[int, ...]  # per-op counts, dense in FpOp order
    ops_executed: int
    digest: str
    more: bool
    image: Optional[StateImage] = None


class SnapshotStore:
    """Per-(workload, input) golden-run service with periodic snapshots.

    Built once per campaign — in the orchestrator, before workers fork —
    and then shared read-only: :meth:`run_injection` never mutates the
    store, so forked workers fast-forward from the parent's pages without
    copies or locks.
    """

    def __init__(self, workload_name: str,
                 interval: Optional[int] = DEFAULT_INTERVAL,
                 pages_factory=PageStore):
        if interval is not None and interval < 1:
            raise ValueError(f"snapshot interval must be >= 1, got {interval}")
        self.workload_name = workload_name
        self.interval = interval
        self._pages_factory = pages_factory
        self.pages = pages_factory()
        self.boundaries: List[Boundary] = []
        self.golden_output: object = None
        self.early_exit_safe = False
        self.total_ops = 0  # golden ops_executed after finalize
        #: (digest, more) -> deepest golden boundary with that state.
        #: Deepest = smallest remaining tail, so budget feasibility is
        #: checked against the cheapest equivalent continuation.
        self._by_digest: Dict[tuple, Boundary] = {}
        #: Boundary indices whose snapshot failed restore verification:
        #: quarantined for the rest of the campaign, never selected
        #: again.  Restores fall back to shallower snapshots or a cold
        #: start — slower, never wrong.
        self._quarantined: set = set()
        self.corrupt_snapshots = 0
        self.cold_starts = 0
        self._built = False

    # -- golden build ------------------------------------------------------------
    def _snapshot_here(self, index: int) -> bool:
        if index == 0:
            return True  # the initial state: always-valid fallback
        return self.interval is not None and index % self.interval == 0

    def _record_boundary(self, ctx: FPContext, state: Dict[str, object],
                         more: bool) -> None:
        index = len(self.boundaries)
        counts, ops_executed = ctx.checkpoint_position()
        image = (encode_state(self.pages, state)
                 if self._snapshot_here(index) else None)
        boundary = Boundary(
            index=index,
            counts=counts,
            ops_executed=ops_executed,
            digest=state_digest(state),
            more=more,
            image=image,
        )
        self.boundaries.append(boundary)
        # Later boundaries overwrite: keep the deepest occurrence of a
        # state (smallest golden tail) for the early-exit lookup.
        self._by_digest[(boundary.digest, more)] = boundary

    def build(self, workload: Workload, ctx: FPContext,
              trap_probe: Optional[bool] = None) -> object:
        """Execute the golden pass once, recording boundaries + snapshots.

        ``trap_probe`` (default: the context's ``trap_nonfinite``) runs
        the golden pass with FP traps armed.  Completing it proves the
        whole golden stream finite, enabling the early exit; if the probe
        fires, :class:`~repro.workloads.base.GuestFpException` propagates
        and the caller rebuilds with ``trap_probe=False`` on a fresh
        context (the early exit then stays disabled).
        """
        if not workload.checkpointable:
            raise ValueError(f"{workload.name} is not checkpointable")
        if trap_probe is None:
            trap_probe = ctx.trap_nonfinite
        self.pages = self._pages_factory()
        self.boundaries = []
        self._by_digest = {}
        self._quarantined = set()
        self.corrupt_snapshots = 0
        self.cold_starts = 0
        self.early_exit_safe = bool(trap_probe) or not ctx.trap_nonfinite
        if trap_probe:
            ctx._armed = True
        try:
            state = workload.initial_state()
            self._record_boundary(ctx, state, more=True)
            more = True
            while more:
                more = workload.advance(ctx, state)
                self._record_boundary(ctx, state, more=more)
            output = workload.finalize(ctx, state)
        finally:
            if trap_probe:
                ctx._armed = False
        self.golden_output = output
        self.total_ops = ctx.ops_executed
        self._built = True
        return output

    # -- injection-run service -----------------------------------------------------
    def select(self, first_victims: Sequence[Tuple[int, int]]
               ) -> Optional[Boundary]:
        """Deepest valid snapshot whose FP position precedes every corruption.

        ``first_victims`` holds ``(dense op slot, first victim index)``
        per corrupted op (:attr:`FPContext.first_victims`).  Quarantined
        boundaries (failed restore verification) are never selected.
        Returns None when no usable snapshot remains — the caller then
        cold-starts from the workload's initial state, which is always
        available and always valid.
        """
        best: Optional[Boundary] = None
        for boundary in self.boundaries:
            if (boundary.image is None
                    or boundary.index in self._quarantined):
                continue
            counts = boundary.counts
            if all(counts[slot] <= first for slot, first in first_victims):
                best = boundary
            else:
                break  # counters only grow: later boundaries invalid too
        return best

    def _materialise(self, workload: Workload,
                     first_victims: Sequence[Tuple[int, int]],
                     info: Optional[dict]) -> tuple:
        """A verified ``(boundary, state)`` pair for one injection run.

        Decodes the deepest valid snapshot and proves it faithful (the
        page hashes via :meth:`PageStore.get`, then the whole state
        against the boundary's golden digest).  A snapshot that fails is
        quarantined and the next shallower one is tried; with none left,
        the run cold-starts from ``workload.initial_state()`` — which by
        the step-protocol contract performs no FP ops and is exactly the
        state boundary 0 captured, so its metadata is reused and the
        replay stays bit-identical, just unaccelerated.
        """
        while True:
            boundary = self.select(first_victims)
            if boundary is None:
                self.cold_starts += 1
                if info is not None:
                    info["cold_start"] = True
                telemetry.count("campaign.ff.cold_starts")
                return self.boundaries[0], workload.initial_state()
            try:
                state = decode_state(self.pages, boundary.image)
                if state_digest(state) != boundary.digest:
                    raise PageCorruption(
                        f"boundary {boundary.index} state digest mismatch")
                return boundary, state
            except PageCorruption:
                self._quarantined.add(boundary.index)
                self.corrupt_snapshots += 1
                if info is not None:
                    info["corrupt"] = info.get("corrupt", 0) + 1
                telemetry.count("campaign.ff.corrupt_snapshots")

    def _tail_fits(self, ctx: FPContext, golden: Boundary) -> bool:
        """Whether the golden tail from ``golden`` fits the op budget.

        A full replay would charge those ops; if they would trip the
        budget the run's true outcome is Timeout and the early exit must
        not fire.
        """
        if ctx.op_budget is None:
            return True
        tail = self.total_ops - golden.ops_executed
        return ctx.ops_executed + tail <= ctx.op_budget

    @telemetry.timed("campaign.ff.replay")
    def run_injection(self, workload: Workload, ctx: FPContext,
                      info: Optional[dict] = None) -> object:
        """Execute one injection run, fast-forwarded.

        Restores the deepest valid snapshot into ``ctx``/a fresh state,
        replays the suffix, and takes the early exit when the run
        provably reconverges to the golden tail.  ``ctx`` carries the
        run's corruption: it picks the snapshot and tells when every
        victim is behind.  Guest
        exceptions (budget timeout, traps, crashes) propagate to the
        caller's classification boundary exactly as under full replay.

        ``info``, when given, is filled in place (so skip statistics
        survive a guest exception): ``boundary``/``ops_skipped`` on
        restore, ``ops_replayed`` and optionally ``early_exit`` at the
        end.
        """
        if not self._built:
            raise RuntimeError("snapshot store used before build()")
        boundary, state = self._materialise(workload, ctx.first_victims,
                                            info)
        ctx.restore_position(boundary.counts, boundary.ops_executed)
        if info is not None:
            info["boundary"] = boundary.index
            info["ops_skipped"] = boundary.ops_executed
        telemetry.count("campaign.ff.restores")
        if boundary.ops_executed:
            telemetry.count("campaign.ff.ops_skipped", boundary.ops_executed)
        ops_at_restore = ctx.ops_executed
        more = boundary.more
        while more:
            more = workload.advance(ctx, state)
            if self.early_exit_safe and ctx.victims_passed():
                golden = self._by_digest.get((state_digest(state), more))
                if golden is not None and self._tail_fits(ctx, golden):
                    # Reconverged onto the golden trajectory: identical
                    # state, no corruption left, budget covers the tail
                    # — the remaining execution is the golden tail, so
                    # its output is the golden output.
                    if info is not None:
                        info["early_exit"] = golden.index
                        info["ops_replayed"] = (ctx.ops_executed
                                                - ops_at_restore)
                    telemetry.count("campaign.ff.early_exits")
                    return self.golden_output
        output = workload.finalize(ctx, state)
        if info is not None:
            info["ops_replayed"] = ctx.ops_executed - ops_at_restore
        return output

    # -- observability -------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        snapshots = sum(1 for b in self.boundaries if b.image is not None)
        return {
            "workload": self.workload_name,
            "interval": self.interval if self.interval is not None else "inf",
            "boundaries": len(self.boundaries),
            "snapshots": snapshots,
            "early_exit_safe": self.early_exit_safe,
            "quarantined": len(self._quarantined),
            "corrupt_snapshots": self.corrupt_snapshots,
            "cold_starts": self.cold_starts,
            **self.pages.stats(),
        }
