"""Campaign execution: golden runs + statistically sized injection runs.

One :class:`CampaignRunner` owns a benchmark instance.  Its golden run
produces the error-free output, the workload profile (dynamic FP counts +
operand traces), the OoO pipeline schedule and the microarchitectural
masking profile.  Each injection run then asks an error model for its
injection event, places it through the microarchitecture injector, and
executes the benchmark with the surviving corruption applied — classifying
the result per :mod:`repro.campaign.outcomes`.

All classification happens at one hardened guest boundary
(:meth:`CampaignRunner.run_guest`): any exception escaping
``Workload.run`` is a guest outcome (Crash/Timeout), never a harness
abort; exceptions raised *outside* that boundary (model planning,
placement, context construction) are harness errors and propagate to the
caller — :mod:`repro.campaign.executor` retries and journals those.

Determinism: every stochastic decision draws from a named RNG stream
derived from (campaign seed, model, point, run index), so campaigns are
bit-reproducible.  The stream name doubles as the run's journal key.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.campaign.fastforward import FastForwardConfig, SnapshotStore
from repro.campaign.journal import run_key
from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.circuit.liberty import OperatingPoint
from repro.errors.base import ErrorModel, WorkloadProfile
from repro.uarch.core import CoreParams, OoOCore, PipelineSchedule
from repro.uarch.injector import InjectionOutcomePlan, MicroArchInjector
from repro.uarch.masking import MaskingProfile
from repro.uarch.trace import MIXES, synthesize_trace
from repro.utils.rng import RngStream
from repro.workloads.base import (
    GuestCrash,
    GuestFpException,
    GuestTimeout,
    Workload,
)
from repro import telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.executor import CampaignExecutor, CellStats

#: Exception types classified as Crash (process kill / panic / SIGFPE).
CRASH_EXCEPTIONS = (
    GuestCrash,
    FloatingPointError,
    ZeroDivisionError,
    IndexError,
    MemoryError,
    OverflowError,
)


class WatchdogTimeout(BaseException):
    """The wall-clock watchdog expired while the guest was running.

    Derives from ``BaseException`` so a guest's blanket ``except
    Exception`` cannot swallow the watchdog: only the classification
    boundary catches it.
    """


@contextmanager
def guest_watchdog(seconds: Optional[float]):
    """Arm a wall-clock SIGALRM watchdog around a guest execution.

    Catches guests that hang without charging FP operations (so the
    FP-op budget's :class:`GuestTimeout` never fires).  Only active on
    the main thread of the process (the only place ``signal`` handlers
    can be installed); a worker process runs guests on its main thread,
    and the pool's parent-side kill deadline is the backstop for guests
    stuck with signals blocked.
    """
    if (not seconds or seconds <= 0
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expired(signum, frame):
        raise WatchdogTimeout(
            f"guest exceeded the {seconds:.3g}s wall-clock watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class GoldenRun:
    """Everything the injection phase needs from the error-free run."""

    output: object
    profile: WorkloadProfile
    schedule: PipelineSchedule
    masking: MaskingProfile
    op_budget: int
    fp_ops_executed: int
    #: Fast-forward snapshot store; None when disabled or the workload
    #: is not checkpointable (injection runs then replay in full).
    snapshots: Optional[SnapshotStore] = None


@dataclass
class RunExecution:
    """One injection run as seen by the classification boundary.

    ``placed`` and ``observed`` are references to what the run already
    built — the placed victim chain and, for an SDC, the guest output —
    so a replay can explain the run without recomputing either.  They
    never cross the worker pipe.
    """

    outcome: Outcome
    injected: bool = True        # False when the plan had no victims
    uarch_masked: int = 0        # victims squashed/dead in the pipeline
    watchdog: bool = False       # the wall-clock watchdog fired
    unexpected: Optional[str] = None  # unlisted guest exception (repr)
    fastforward: Optional[dict] = None  # restore/replay counters, ff on
    weight: float = 1.0  # HT importance weight of the sampled victim
    placed: Optional[InjectionOutcomePlan] = None  # victims, when planned
    observed: object = None  # the guest's output (SDC only)


@dataclass
class CampaignResult:
    """Outcome of one (benchmark, model, point) campaign cell."""

    workload: str
    model: str
    point: str
    counts: OutcomeCounts
    error_ratio: float          # the model's injected-error ratio (Fig. 10)
    uarch_masked: int = 0       # victims squashed/dead before software
    runs_without_injection: int = 0
    seed: int = 0
    stats: Optional["CellStats"] = None  # executor statistics, if any

    @property
    def avm(self) -> float:
        return self.counts.avm

    @property
    def degraded(self) -> bool:
        """Whether the executor abandoned part of this cell (see stats)."""
        return bool(self.stats is not None and self.stats.degraded)

    @property
    def stop(self):
        """The adaptive stop decision, when the cell ran adaptively."""
        return getattr(self.stats, "stop", None) if self.stats else None

    @property
    def avm_ht(self) -> float:
        """Horvitz–Thompson AVM: unbiased under importance sampling."""
        if self.stats is None or not self.counts.total:
            return self.avm
        return self.stats.weighted_non_masked / self.counts.total

    @property
    def avm_sn(self) -> float:
        """Self-normalized weighted AVM (lower variance, small bias)."""
        if self.stats is None or not self.stats.weight_sum:
            return self.avm
        return self.stats.weighted_non_masked / self.stats.weight_sum


class CampaignRunner:
    """Runs injection campaigns for one benchmark."""

    def __init__(self, workload: Workload,
                 core_params: Optional[CoreParams] = None,
                 seed: int = 2021,
                 trace_cap: int = 1_000_000,
                 fastforward: Optional[FastForwardConfig] = None):
        self.workload = workload
        self.core = OoOCore(core_params or CoreParams())
        self.seed = seed
        self.trace_cap = trace_cap
        self.fastforward = (FastForwardConfig() if fastforward is None
                            else fastforward)
        self._golden: Optional[GoldenRun] = None

    # -- golden phase ---------------------------------------------------------------
    def golden(self) -> GoldenRun:
        """Error-free reference run (cached)."""
        if self._golden is not None:
            return self._golden
        with telemetry.span("campaign.golden", workload=self.workload.name):
            return self._golden_uncached()

    def _golden_uncached(self) -> GoldenRun:
        ctx = self.workload.make_context(
            record_trace=True, trace_cap=self.trace_cap
        )
        snapshots: Optional[SnapshotStore] = None
        # FP warnings are guest behaviour: silenced once per guest
        # execution (FPContext enters no errstate of its own).
        with np.errstate(all="ignore"):
            if self.fastforward.enabled and self.workload.checkpointable:
                snapshots = SnapshotStore(
                    self.workload.name,
                    interval=self.fastforward.interval,
                    pages_factory=self.fastforward.make_pages)
                try:
                    output = snapshots.build(self.workload, ctx)
                except GuestFpException:
                    # The armed trap probe fired: the golden stream
                    # contains non-finite values, so the early exit is
                    # unsound.  Rebuild cleanly on a fresh context with
                    # the probe off.
                    ctx = self.workload.make_context(
                        record_trace=True, trace_cap=self.trace_cap
                    )
                    output = snapshots.build(self.workload, ctx,
                                             trap_probe=False)
            else:
                output = self.workload.run(ctx)
        profile = ctx.profile(self.workload.name, self.workload.ops_per_fp)

        mix = MIXES.get(self.workload.mix_name, MIXES["default"])
        with telemetry.span("uarch.trace"):
            window = synthesize_trace(
                self.workload.name, ctx.fp_op_sequence(), mix=mix,
                seed=self.seed,
            )
        with telemetry.span("uarch.ooo"):
            schedule = self.core.simulate(
                window,
                total_fp_instructions=profile.fp_instructions,
                ops_per_fp=mix.ops_per_fp,
            )
        profile.golden_cycles = schedule.total_cycles
        masking = MaskingProfile.from_schedule(schedule)
        self._golden = GoldenRun(
            output=output,
            profile=profile,
            schedule=schedule,
            masking=masking,
            op_budget=2 * ctx.ops_executed,
            fp_ops_executed=ctx.ops_executed,
            snapshots=snapshots,
        )
        return self._golden

    # -- injection phase ---------------------------------------------------------------
    def run_stream(self, model: ErrorModel, point: OperatingPoint,
                   run_index: int) -> RngStream:
        """The RNG stream that drives one run; its name is the run key."""
        return RngStream(
            self.seed,
            run_key(self.workload.name, model.name, point.name, run_index),
        )

    def place(self, model: ErrorModel, point: OperatingPoint,
              rng: RngStream,
              injector: Optional[MicroArchInjector] = None):
        """Plan and place one run's victims, without executing the guest.

        Returns ``(plan, placed)``; ``placed`` is None when the model
        planned an error-free run.  Draws from ``rng`` exactly as
        :meth:`execute_run` does, so re-placing a run reproduces its
        victim chain.
        """
        golden = self.golden()
        plan = model.plan(golden.profile, point, rng)
        if not plan.injects:
            return plan, None
        if injector is None:
            injector = MicroArchInjector(golden.schedule, golden.masking)
        return plan, injector.place(plan, rng)

    def execute_run(self, model: ErrorModel, point: OperatingPoint,
                    run_index: int,
                    injector: Optional[MicroArchInjector] = None,
                    wall_clock_timeout: Optional[float] = None,
                    guest_entry=None, attempt: int = 0) -> RunExecution:
        """Plan, place and execute one injection run.

        Exceptions raised before :meth:`run_guest` (planning/placement)
        are harness-side and propagate; everything escaping the guest is
        classified.  ``guest_entry``, when given, is called immediately
        before the guest boundary is entered — pool workers use it to
        tell the orchestrator that a subsequent death is a guest crash,
        not a harness failure.  ``attempt`` is the executor's harness
        retry counter; it only rides on the trace context so stitched
        spans can tell retries apart — it never influences the run.
        """
        golden = self.golden()
        telemetry.count("campaign.runs")
        rng = self.run_stream(model, point, run_index)
        # Narrow the trace context to this run for the duration: the
        # stream name *is* the journal key, so every span closed below
        # (here or transitively in the guest) is stamped with the same
        # identity the journal uses — the hook that lets `repro explain
        # --trace` stitch one causal trace out of parent and worker
        # span streams.
        base_ctx = telemetry.get_trace_context()
        if base_ctx is not None:
            telemetry.set_trace_context(base_ctx.for_run(rng.name, attempt))
        try:
            with telemetry.span("campaign.run", run=run_index):
                return self._execute_planned(
                    model, point, rng, golden, injector,
                    wall_clock_timeout, guest_entry)
        finally:
            if base_ctx is not None:
                telemetry.set_trace_context(base_ctx)

    def _execute_planned(self, model: ErrorModel, point: OperatingPoint,
                         rng: RngStream, golden: "GoldenRun",
                         injector: Optional[MicroArchInjector],
                         wall_clock_timeout: Optional[float],
                         guest_entry) -> RunExecution:
        plan, placed = self.place(model, point, rng, injector)
        if placed is None:
            return RunExecution(Outcome.MASKED, injected=False)
        corruption = placed.corruption_map()
        weight = float(getattr(plan, "weight", 1.0))
        if not corruption:
            # Nothing reached architectural state: trivially masked.
            return RunExecution(Outcome.MASKED,
                                uarch_masked=placed.masked_count,
                                weight=weight, placed=placed)
        if guest_entry is not None:
            guest_entry()
        execution = self.run_guest(corruption, golden=golden,
                                   wall_clock_timeout=wall_clock_timeout)
        execution.uarch_masked = placed.masked_count
        execution.weight = weight
        execution.placed = placed
        return execution

    @telemetry.timed("campaign.guest")
    def run_guest(self, corruption, golden: Optional[GoldenRun] = None,
                  wall_clock_timeout: Optional[float] = None
                  ) -> RunExecution:
        """The single hardened classification boundary.

        Everything escaping ``Workload.run`` is a *guest* outcome: the
        budget's :class:`GuestTimeout` and the watchdog map to Timeout,
        ``CRASH_EXCEPTIONS`` to Crash, and any other exception — e.g. a
        ``ValueError`` from a corruption-deranged index — is also Crash
        (the guest terminated abnormally) but kept visible through
        ``RunExecution.unexpected`` so harness bugs can't hide as guest
        noise.
        """
        golden = golden or self.golden()
        telemetry.count("campaign.guest_runs")
        ctx = self.workload.make_context(
            corruption=corruption, op_budget=golden.op_budget
        )
        snapshots = golden.snapshots
        # Filled in place by run_injection, so restore/skip counters
        # survive a guest exception mid-suffix.
        ff_info: Optional[dict] = {} if snapshots is not None else None
        if snapshots is None:
            telemetry.count("campaign.ff.full_replays")
        try:
            with guest_watchdog(wall_clock_timeout), \
                    np.errstate(all="ignore"):
                if snapshots is not None:
                    observed = snapshots.run_injection(
                        self.workload, ctx, info=ff_info)
                else:
                    observed = self.workload.run(ctx)
        except GuestTimeout:
            return RunExecution(Outcome.TIMEOUT, fastforward=ff_info)
        except WatchdogTimeout:
            return RunExecution(Outcome.TIMEOUT, watchdog=True,
                                fastforward=ff_info)
        except CRASH_EXCEPTIONS:
            return RunExecution(Outcome.CRASH, fastforward=ff_info)
        except Exception as exc:
            return RunExecution(
                Outcome.CRASH,
                unexpected=f"{type(exc).__name__}: {exc}",
                fastforward=ff_info,
            )
        if self.workload.outputs_equal(golden.output, observed):
            return RunExecution(Outcome.MASKED, fastforward=ff_info)
        return RunExecution(Outcome.SDC, fastforward=ff_info,
                            observed=observed)

    def campaign(self, model: ErrorModel, point: OperatingPoint,
                 runs: Optional[int] = None,
                 executor: Optional["CampaignExecutor"] = None,
                 adaptive=None) -> CampaignResult:
        """Run a full campaign cell (default: the paper's 1068 runs).

        Goes through the fault-tolerant executor; without an explicit
        ``executor`` a serial in-process one (no journal, no watchdog) is
        used, which reproduces the historical behaviour bit-for-bit.
        ``adaptive`` (an :class:`~repro.campaign.adaptive.AdaptiveConfig`)
        turns ``runs`` into a ceiling and stops the cell when its
        anytime-valid interval reaches the target half-width.
        """
        from repro.campaign.executor import CampaignExecutor

        if executor is None:
            executor = CampaignExecutor(self)
        return executor.run_cell(model, point, runs=runs,
                                 adaptive=adaptive)
