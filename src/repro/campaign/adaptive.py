"""Adaptive (sequential) campaign sampling: stop when the CI says so.

The paper sizes every (benchmark, voltage, model) cell at 1068 runs —
the fixed-N budget for a ±3 % Wilson margin at 95 % confidence — even
when a cell's AVM converges after a few hundred runs.  This module
inverts the CI-trajectory sensor built by the control plane into a
*stopping rule*:

- **Anytime-valid interval** (:func:`anytime_wilson_ci`): naively
  peeking at a running 95 % Wilson interval after every run inflates the
  error rate far beyond 5 % (each look is another chance to stop on a
  fluctuation).  The sampler therefore only evaluates the rule on a
  predeclared geometric *look schedule* (:func:`look_schedule`) and
  Bonferroni-corrects the confidence across those looks, so the
  probability that the true AVM ever escapes the reported interval —
  at *any* look — stays below ``1 - confidence``.  Conservative but
  honest; see DESIGN.md §14 for the caveat.
- **Sequential stopping** (:class:`CellSampler`): a cell stops at the
  first look whose corrected interval half-width reaches ``ci_target``
  (never below the ``min_runs`` floor), or exhausts the fixed-N budget.
  The decision is a pure function of the outcome sequence *in run-index
  order*, so it is identical for any worker count, fast-forward setting
  or resume point.
- **Dynamic run streams** (:class:`AdaptiveCellStream`): the executor
  consumes run indices 0, 1, 2, … and commits results strictly in index
  order; because every run draws exclusively from its own RNG substream
  (keyed by run index), any prefix of an adaptive cell is bit-identical
  to the fixed-N campaign truncated at the same index.
- **Budget reallocation** (:func:`run_adaptive_cells`): runs saved by
  early-stopping cells accumulate in a pool that a max-CI-width
  priority queue redistributes to cells that exhausted their budget
  without converging.
- **Importance sampling** (:class:`ImportanceModel`): optionally biases
  WA victim placement toward events whose bitmasks touch high-BER bits
  (most uniform placements are Masked and uninformative), with
  Horvitz–Thompson reweighting so the weighted AVM stays unbiased; a
  self-normalized estimator is exposed alongside.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.circuit.liberty import OperatingPoint
from repro.errors.base import ErrorModel, InjectionPlan, WorkloadProfile
from repro.utils.rng import RngStream
from repro.utils.stats import wilson_interval

__all__ = [
    "RULE_BUDGET",
    "RULE_TARGET",
    "AdaptiveConfig",
    "AdaptiveReport",
    "CellSampler",
    "AdaptiveCellStream",
    "ImportanceModel",
    "StopDecision",
    "anytime_wilson_ci",
    "look_schedule",
    "run_adaptive_cells",
]

#: Stop-rule identifiers carried in journals, /status and trajectories.
RULE_TARGET = "ci-target"    # interval half-width reached the target
RULE_BUDGET = "budget"       # fixed-N budget exhausted before converging


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the sequential stopping rule.

    ``ci_target`` is the half-width (the paper's ±margin) at which a
    cell stops; ``min_runs`` is the floor below which no stop decision
    is ever taken; ``growth`` spaces the geometric look schedule (looks
    at ``min_runs``, ``min_runs·growth``, … up to the budget);
    ``importance`` biases WA victim placement (see
    :class:`ImportanceModel`); ``reallocate`` redistributes saved runs
    to unconverged cells; ``max_grants`` bounds reallocation rounds.
    """

    ci_target: float = 0.03
    confidence: float = 0.95
    min_runs: int = 100
    growth: float = 1.25
    importance: bool = False
    reallocate: bool = True
    max_grants: int = 8

    def __post_init__(self):
        if not 0.0 < self.ci_target < 0.5:
            raise ValueError(f"ci_target must be in (0, 0.5), "
                             f"got {self.ci_target}")
        if not 0.5 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0.5, 1), "
                             f"got {self.confidence}")
        if self.min_runs < 1:
            raise ValueError(f"min_runs must be >= 1, got {self.min_runs}")
        if self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")


def look_schedule(min_runs: int, budget: int,
                  growth: float = 1.25) -> Tuple[int, ...]:
    """The predeclared run counts at which the stop rule is evaluated.

    Geometric from ``min_runs`` with ratio ``growth``, always including
    the ``budget`` itself (the final, forced look).  A sparse schedule
    keeps the Bonferroni correction mild: K looks cost a factor
    ``1/K`` on the per-look alpha instead of ``1/budget``.
    """
    budget = int(budget)
    min_runs = int(min_runs)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if min_runs >= budget:
        return (budget,)
    looks: List[int] = []
    n = min_runs
    while n < budget:
        looks.append(n)
        n = max(n + 1, int(math.ceil(n * growth)))
    looks.append(budget)
    return tuple(looks)


def anytime_wilson_ci(successes: int, trials: int,
                      confidence: float = 0.95,
                      looks: int = 1) -> Tuple[float, float]:
    """Wilson interval corrected for ``looks`` predeclared peeks.

    Splits the error budget ``alpha = 1 - confidence`` evenly across
    the looks (union bound): each individual interval is evaluated at
    ``1 - alpha/looks``, so the chance the true proportion escapes the
    interval at *any* look is at most ``alpha``.  With ``looks=1`` this
    is exactly the plain Wilson interval.
    """
    looks = max(1, int(looks))
    alpha = 1.0 - confidence
    return wilson_interval(successes, trials, 1.0 - alpha / looks)


@dataclass(frozen=True)
class StopDecision:
    """Why, and with what evidence, a cell stopped.

    ``n`` counts the classified runs consumed when the decision fired
    (in run-index order); ``ci_lo``/``ci_hi`` is the anytime-valid
    interval at that look; ``looks`` the size of the Bonferroni
    schedule the interval was corrected for.
    """

    rule: str
    n: int
    budget: int
    non_masked: int
    avm: float
    ci_lo: float
    ci_hi: float
    target: float
    confidence: float
    looks: int

    @property
    def half_width(self) -> float:
        return (self.ci_hi - self.ci_lo) / 2.0

    @property
    def runs_saved(self) -> int:
        return max(0, self.budget - self.n)

    @property
    def converged(self) -> bool:
        return self.half_width <= self.target + 1e-12

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule, "n": self.n, "budget": self.budget,
            "non_masked": self.non_masked, "avm": self.avm,
            "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
            "target": self.target, "confidence": self.confidence,
            "looks": self.looks,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StopDecision":
        return cls(
            rule=str(data["rule"]), n=int(data["n"]),
            budget=int(data["budget"]),
            non_masked=int(data["non_masked"]), avm=float(data["avm"]),
            ci_lo=float(data["ci_lo"]), ci_hi=float(data["ci_hi"]),
            target=float(data["target"]),
            confidence=float(data["confidence"]),
            looks=int(data["looks"]),
        )


class CellSampler:
    """Sequential stop rule over one cell's ordered outcome stream.

    Feed classified runs in run-index order via :meth:`observe`; the
    first call that triggers a look whose corrected interval is tight
    enough (or exhausts the budget) returns the :class:`StopDecision`.
    The tracked half-width envelope (``widths``) is the running minimum
    over looks, so it is monotone non-increasing by construction — the
    invariant the property suite pins.
    """

    def __init__(self, config: AdaptiveConfig, budget: int):
        self.config = config
        self.budget = int(budget)
        self.looks = look_schedule(config.min_runs, self.budget,
                                   config.growth)
        self._look_set = frozenset(self.looks)
        self.n = 0
        self.non_masked = 0
        self.widths: List[float] = []   # half-width envelope, per look
        self.decision: Optional[StopDecision] = None

    def interval(self) -> Tuple[float, float]:
        """The anytime-valid interval at the current sample size."""
        return anytime_wilson_ci(self.non_masked, self.n,
                                 self.config.confidence, len(self.looks))

    def observe(self, non_masked: bool) -> Optional[StopDecision]:
        """Consume one classified run; returns the decision when made."""
        if self.decision is not None:
            return self.decision
        self.n += 1
        if non_masked:
            self.non_masked += 1
        if self.n not in self._look_set:
            return None
        lo, hi = self.interval()
        half = (hi - lo) / 2.0
        envelope = min(half, self.widths[-1]) if self.widths else half
        self.widths.append(envelope)
        rule = None
        if envelope <= self.config.ci_target + 1e-12:
            rule = RULE_TARGET
        elif self.n >= self.budget:
            rule = RULE_BUDGET
        if rule is None:
            return None
        self.decision = StopDecision(
            rule=rule, n=self.n, budget=self.budget,
            non_masked=self.non_masked, avm=self.non_masked / self.n,
            ci_lo=lo, ci_hi=hi, target=self.config.ci_target,
            confidence=self.config.confidence, looks=len(self.looks),
        )
        return self.decision


class AdaptiveCellStream:
    """A cell as a dynamic run stream with deterministic ordered commit.

    The executor *reserves* fresh run indices (0, 1, 2, … up to the
    budget) and *delivers* classified records as they complete — in any
    order, from any worker.  The stream buffers out-of-order arrivals
    and releases records for commit strictly in run-index order,
    feeding each one to the :class:`CellSampler` as it is released.
    The stop decision is therefore a pure function of the ordered
    outcome prefix: identical for 1 or N workers, with or without
    fast-forward, interrupted or not.

    ``prior`` records (journal-resumed or cached from an earlier
    adaptive pass) replay through the sampler at construction without
    being re-committed; a resumed cell that already contains its stop
    prefix reproduces the same decision without executing anything.
    Results delivered for indices at or past the stop point are
    *dropped* — never committed, never journaled — so the journal of an
    adaptive cell is exactly the fixed-N journal truncated at the stop.
    """

    def __init__(self, config: AdaptiveConfig, budget: int,
                 prior: Optional[Dict[int, Any]] = None):
        self.sampler = CellSampler(config, budget)
        self.budget = int(budget)
        self._prior = dict(prior or {})
        self._buffer: Dict[int, Any] = {}
        self._abandoned: set = set()
        self._frontier = 0            # next index to consume in order
        self._next = 0                # next fresh index to reserve
        self._outstanding: set = set()
        self.consumed: List[int] = []  # indices counted, in order
        self.discarded = 0            # speculative results dropped at stop
        self.backlog = self.budget - sum(
            1 for idx in self._prior if 0 <= idx < self.budget)
        for idx, record in self._prior.items():
            if 0 <= idx < self.budget:
                self._buffer[idx] = record
        self._advance()

    @property
    def decision(self) -> Optional[StopDecision]:
        return self.sampler.decision

    @property
    def stopped(self) -> bool:
        return self.sampler.decision is not None

    @property
    def abandoned(self) -> int:
        """Indices permanently skipped after exhausted retries."""
        return len(self._abandoned)

    def reserve(self) -> Optional[int]:
        """Next fresh run index to execute, or None."""
        while not self.stopped and self._next < self.budget:
            idx = self._next
            self._next += 1
            if idx in self._prior:
                continue  # already classified by a previous pass
            self._outstanding.add(idx)
            return idx
        return None

    def deliver(self, run_index: int, record: Any) -> List[Any]:
        """Accept one completed run; return records now safe to commit.

        Returns records in run-index order — possibly empty (arrival out
        of order), possibly several (a gap filled).  Results landing
        after the stop decision are dropped.
        """
        self._outstanding.discard(run_index)
        if self.stopped or not 0 <= run_index < self.budget:
            self.discarded += 1
            return []
        self._buffer[run_index] = record
        return self._advance()

    def abandon(self, run_index: int) -> List[Any]:
        """A run permanently failed: skip its index in the order.

        The frontier steps over the hole (the sampler never sees it), so
        progress continues deterministically given the same failure set.
        """
        self._outstanding.discard(run_index)
        if self.stopped:
            return []
        self._abandoned.add(run_index)
        return self._advance()

    def _advance(self) -> List[Any]:
        released: List[Any] = []
        while not self.stopped and self._frontier < self.budget:
            idx = self._frontier
            if idx in self._abandoned:
                self._frontier += 1
                continue
            if idx not in self._buffer:
                break
            record = self._buffer.pop(idx)
            self._frontier += 1
            self.consumed.append(idx)
            if idx not in self._prior:
                released.append(record)
            outcome = getattr(record, "outcome", str(record))
            self.sampler.observe(outcome != "Masked")
        if self.stopped:
            self.discarded += len(self._buffer)
            self._buffer.clear()
        return released


# -- campaign-level budget reallocation ------------------------------------------


@dataclass
class AdaptiveReport:
    """Campaign-wide accounting of the sequential rule.

    One entry per cell (post-reallocation state), plus pool totals; the
    bench adaptive block, the CLI summary and EXPERIMENTS.md tables all
    render from this.
    """

    budget_per_cell: int
    cells: List[Dict[str, Any]] = field(default_factory=list)
    grants: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def budget_total(self) -> int:
        return self.budget_per_cell * len(self.cells)

    @property
    def executed_total(self) -> int:
        return sum(c["n"] for c in self.cells)

    @property
    def saved_total(self) -> int:
        return max(0, self.budget_total - self.executed_total)

    @property
    def savings_fraction(self) -> float:
        total = self.budget_total
        return self.saved_total / total if total else 0.0

    @property
    def stopped_early(self) -> int:
        return sum(1 for c in self.cells if c["rule"] == RULE_TARGET)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "budget_per_cell": self.budget_per_cell,
            "budget_total": self.budget_total,
            "executed_total": self.executed_total,
            "saved_total": self.saved_total,
            "savings_fraction": self.savings_fraction,
            "stopped_early": self.stopped_early,
            "cells": [dict(c) for c in self.cells],
            "grants": [dict(g) for g in self.grants],
        }

    def render(self) -> str:
        """Plain-text summary for the CLI."""
        lines = [
            f"Adaptive sampling: {self.executed_total}/{self.budget_total} "
            f"runs ({self.savings_fraction:.0%} saved), "
            f"{self.stopped_early}/{len(self.cells)} cells converged early"
        ]
        for cell in self.cells:
            lines.append(
                f"  {cell['cell']:<30s} {cell['rule']:>9s} at n="
                f"{cell['n']:<5d} AVM in [{cell['ci_lo']:.3f}, "
                f"{cell['ci_hi']:.3f}] (saved {cell['saved']})"
            )
        for grant in self.grants:
            lines.append(
                f"  regrant {grant['cell']}: +{grant['granted']} runs "
                f"(half-width {grant['half_width']:.3f} > "
                f"{grant['target']:.3f})"
            )
        return "\n".join(lines)


def _runs_needed(n: int, half_width: float, target: float) -> int:
    """Rough total sample size to shrink ``half_width`` to ``target``.

    Interval width scales as ``1/√n``, so reaching the target from the
    *observed* (Bonferroni-corrected) half-width needs roughly
    ``n·(half/target)²`` total runs.  Scaling from the observed width —
    rather than a fresh normal-approximation formula — keeps the
    estimate consistent with the corrected interval the stop rule
    actually evaluates.  Only used to size reallocation grants, never
    for the stop decision itself.
    """
    if half_width <= target:
        return n
    ratio = half_width / target
    return max(n + 1, int(math.ceil(n * ratio * ratio)))


def run_adaptive_cells(cells: Sequence[Tuple[Any, ErrorModel,
                                             OperatingPoint]],
                       config: AdaptiveConfig,
                       runs: int) -> Tuple[List[Any], AdaptiveReport]:
    """Run campaign cells adaptively, reallocating saved budget.

    ``cells`` is a sequence of ``(executor, model, point)`` triples (the
    executors may differ per benchmark).  Pass 1 runs every cell with
    the per-cell fixed-N ``runs`` budget as its ceiling; runs saved by
    early stoppers accumulate in a pool.  A max-CI-width priority queue
    then regrants the pool to unconverged cells (those that exhausted
    their budget above the target width), re-entering ``run_cell`` with
    a raised ceiling — resumed from the executor's adaptive cache or
    journal, so only the extension executes.  Returns the (final)
    results in input order plus the :class:`AdaptiveReport`.
    """
    results: List[Any] = []
    report = AdaptiveReport(budget_per_cell=int(runs))
    pool = 0
    widest: List[Tuple[float, int]] = []  # (-half_width, cell index)
    budgets: Dict[int, int] = {}

    def _summarise(index: int, result: Any) -> None:
        stats = result.stats
        decision = getattr(stats, "stop", None) if stats else None
        entry = {
            "cell": f"{result.workload}/{result.model}/{result.point}",
            "rule": decision.rule if decision else RULE_BUDGET,
            "n": decision.n if decision else result.counts.total,
            "budget": budgets[index],
            "saved": max(0, int(runs) - (decision.n if decision
                                         else result.counts.total)),
            "avm": decision.avm if decision else result.avm,
            "ci_lo": decision.ci_lo if decision else 0.0,
            "ci_hi": decision.ci_hi if decision else 1.0,
        }
        if index < len(report.cells):
            report.cells[index] = entry
        else:
            report.cells.append(entry)

    for index, (executor, model, point) in enumerate(cells):
        budgets[index] = int(runs)
        result = executor.run_cell(model, point, runs=runs,
                                   adaptive=config)
        results.append(result)
        _summarise(index, result)
        decision = (getattr(result.stats, "stop", None)
                    if result.stats else None)
        if decision is None:
            continue
        if decision.converged:
            pool += decision.runs_saved
        elif config.reallocate:
            heapq.heappush(widest, (-decision.half_width, index))

    grants = 0
    while pool > 0 and widest and grants < config.max_grants:
        neg_width, index = heapq.heappop(widest)
        executor, model, point = cells[index]
        previous = results[index]
        decision = (getattr(previous.stats, "stop", None)
                    if previous.stats else None)
        n_now = decision.n if decision else previous.counts.total
        grant = min(pool, max(1, _runs_needed(n_now, -neg_width,
                                              config.ci_target) - n_now))
        pool -= grant
        budgets[index] += grant
        report.grants.append({
            "cell": report.cells[index]["cell"], "granted": grant,
            "half_width": -neg_width, "target": config.ci_target,
        })
        result = executor.run_cell(model, point, runs=budgets[index],
                                   adaptive=config)
        results[index] = result
        _summarise(index, result)
        grants += 1
        decision = (getattr(result.stats, "stop", None)
                    if result.stats else None)
        if decision is not None and not decision.converged and pool > 0:
            heapq.heappush(widest, (-decision.half_width, index))
    return results, report


# -- importance sampling -----------------------------------------------------------


def _popcount(mask: int) -> int:
    return bin(int(mask)).count("1")


class ImportanceModel(ErrorModel):
    """Importance-sampled victim placement over a WA-style model.

    The base WA model picks uniformly from the faulty population —
    most picks are Masked and tell us little.  This wrapper samples
    events proportionally to a positive score built from the timing
    model's per-op/per-bit error probabilities (each event scores
    ``1 + Σ_{b∈bitmask} ber[b]/mean(ber)``, falling back to the popcount
    when no BER profile exists), then attaches the Horvitz–Thompson
    weight ``w = p_uniform / q_proposal`` to the plan so the weighted
    AVM estimators stay unbiased: ``E_q[w·X] = E_uniform[X]``.

    The model gets its own name (``WA-IS`` for a ``WA`` base) because
    the RNG stream key includes the model name: importance sampling is
    a *different* run stream by construction and must never alias the
    uniform one in journals or caches.
    """

    injection_technique = "statistical (importance-sampled)"
    instruction_aware = True
    workload_aware = True
    microarchitecture_aware = True

    def __init__(self, base, suffix: str = "-IS"):
        for attr in ("faults", "_point_faults", "faulty_population",
                     "_emit_burst"):
            if not hasattr(base, attr):
                raise TypeError(
                    f"ImportanceModel needs a WA-style base with "
                    f"trace faults; {type(base).__name__} lacks {attr!r}")
        self.base = base
        self.name = f"{base.name}{suffix}"
        self.provenance = base.provenance
        self._proposals: Dict[str, Tuple[list, list, list]] = {}

    def error_ratio(self, profile: WorkloadProfile,
                    point: OperatingPoint) -> float:
        return self.base.error_ratio(profile, point)

    def faulty_population(self, point: OperatingPoint) -> int:
        return self.base.faulty_population(point)

    def proposal(self, point: OperatingPoint):
        """The proposal distribution at a point.

        Returns ``(events, q, w)`` where ``events`` are ``(op, local)``
        pairs in the base model's enumeration order, ``q`` the proposal
        probabilities (sum to 1) and ``w`` the aligned HT weights
        (``Σ qᵢ·wᵢ == 1`` — the unbiasedness identity the property
        suite checks).
        """
        cached = self._proposals.get(point.name)
        if cached is not None:
            return cached
        faults = self.base._point_faults(point)
        events: List[Tuple[Any, int]] = []
        scores: List[float] = []
        for op, tf in sorted(faults.items(), key=lambda kv: kv[0].value):
            bit_w = None
            if tf.ber is not None:
                ber = [float(b) for b in tf.ber]
                positive = [b for b in ber if b > 0]
                if positive:
                    mean = sum(positive) / len(positive)
                    bit_w = [b / mean for b in ber]
            for local in range(tf.count):
                mask = int(tf.bitmasks[local])
                if bit_w is None:
                    score = 1.0 + float(_popcount(mask))
                else:
                    score = 1.0 + sum(
                        bit_w[b] for b in range(len(bit_w))
                        if mask >> b & 1)
                events.append((op, local))
                scores.append(score)
        total = sum(scores)
        population = len(events)
        q = [s / total for s in scores]
        w = [(1.0 / population) / qi for qi in q]
        self._proposals[point.name] = (events, q, w)
        return events, q, w

    def plan(self, profile: WorkloadProfile, point: OperatingPoint,
             rng: RngStream) -> InjectionPlan:
        plan = InjectionPlan(model=self.name, point=point.name)
        if self.base.faulty_population(point) == 0:
            return plan
        events, q, w = self.proposal(point)
        u = float(rng.random())
        acc = 0.0
        chosen = len(events) - 1
        for i, qi in enumerate(q):
            acc += qi
            if u <= acc:
                chosen = i
                break
        op, local = events[chosen]
        tf = self.base._point_faults(point)[op]
        self.base._emit_burst(plan, tf, local)
        plan.weight = w[chosen]
        return plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ImportanceModel({self.base!r})"
