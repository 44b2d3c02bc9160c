"""Per-layer timing wrappers for the traced benchmark run.

A layer is one public function or method of ``repro``.  The tracer
replaces it where its callers look it up (a module attribute or a class
attribute) with a wrapper that records the call's inclusive time, its
self time (inclusive minus the time spent in nested layer calls) and
optional counts taken from its arguments or return value.  Nothing in
``src/`` changes: :meth:`Tracer.uninstall` puts the originals back.

Self times of all layers plus the time no layer covers add up to the
wall time of the traced job, which is how the per-layer table is built.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _class_tree(base: type) -> List[type]:
    """``base`` and every subclass of it, depth first."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """Inclusive/self time and counts per layer, from installed wrappers."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every accumulator (the wrappers stay installed)."""
        self.inclusive.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self._stack.clear()

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable,
              observe: Optional[Callable] = None,
              accept: Optional[Callable] = None) -> Callable:
        """A wrapper timing ``fn`` as ``layer``.

        ``observe(counts, result, *args, **kwargs)`` adds counts for a
        call.  ``accept(result)`` returning false drops the call from the
        layer: its time stays with the caller (used for cached lookups
        that do no layer work).
        """
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
            if accept is not None and not accept(result):
                return result
            tracer.inclusive[layer] += elapsed
            tracer.self_time[layer] += elapsed - frame[0]
            tracer.calls[layer] += 1
            if stack:
                stack[-1][0] += elapsed
            if observe is not None:
                observe(tracer.counts, result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner: object, name: str, layer: str, **kw) -> None:
        """Wrap ``owner.name`` (a module or class attribute) as ``layer``."""
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(layer, original.__func__,
                                                 **kw))
        else:
            replacement = self._wrap(layer, original, **kw)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def on_call(self, owner: object, name: str, callback: Callable) -> None:
        """Call ``callback(*args, **kwargs)`` after each ``owner.name``
        call, without making it a layer."""
        original = vars(owner)[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            callback(*args, **kwargs)
            return result

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def patch_method(self, base: type, name: str, layer: str, **kw) -> None:
        """Wrap ``name`` on ``base`` and on every subclass defining it."""
        for cls in _class_tree(base):
            if name in vars(cls):
                self.patch(cls, name, layer, **kw)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def install_layers(tracer: Tracer) -> None:
    """Wrap every ``repro`` layer the benchmark reports on."""
    import repro.campaign.runner as runner_mod
    import repro.errors as errors_pkg
    import repro.experiments.context as context_mod
    from repro.campaign.executor import CampaignExecutor
    from repro.campaign.fastforward import SnapshotStore
    from repro.campaign.journal import RunJournal
    from repro.campaign.runner import CampaignRunner, GoldenRun
    from repro.circuit.bitsim import BitParallelTimingAnalysis
    from repro.errors.base import ErrorModel
    from repro.errors.pipeline import CharacterizationPipeline
    from repro.fpu.timing import TimingModel
    from repro.uarch.core import OoOCore
    from repro.uarch.injector import MicroArchInjector
    from repro.workloads.base import Workload

    # CampaignRunner.golden() caches its result: only a call returning a
    # GoldenRun constructed while the wrappers were installed built one.
    built = set()

    def record_build(golden, *args, **kwargs):
        built.add(id(golden))

    def new_golden(golden) -> bool:
        if id(golden) not in built:
            return False
        built.discard(id(golden))
        return True

    def count_sim(counts, schedule, core, window, *args, **kwargs):
        counts["uarch.sim_cycles"] += int(schedule.total_cycles)
        counts["uarch.fp_simulated"] += int(window.fp_count)

    def count_vectors(counts, masks, model, op, a, *args, **kwargs):
        counts["errors.vectors"] += int(a.size)

    tracer.patch(context_mod, "make_workload", "workloads.input")
    tracer.patch(runner_mod, "synthesize_trace", "uarch.trace")
    tracer.patch_method(OoOCore, "simulate", "uarch.ooo", observe=count_sim)
    tracer.on_call(GoldenRun, "__init__", record_build)
    tracer.patch_method(CampaignRunner, "golden", "campaign.golden",
                        accept=new_golden)
    tracer.patch_method(CampaignExecutor, "run_cell", "campaign.cell")
    tracer.patch_method(ErrorModel, "plan", "errors.plan")
    tracer.patch_method(MicroArchInjector, "place", "uarch.place")
    tracer.patch_method(CampaignRunner, "run_guest", "campaign.guest")
    tracer.patch_method(SnapshotStore, "run_injection", "campaign.ff.replay")
    tracer.patch_method(Workload, "outputs_equal", "workloads.classify")
    tracer.patch_method(RunJournal, "record_run", "campaign.journal.write")
    tracer.patch_method(RunJournal, "open", "campaign.journal.open")
    tracer.patch_method(CharacterizationPipeline, "characterize_ia",
                        "errors.ia")
    tracer.patch_method(CharacterizationPipeline, "characterize_da",
                        "errors.da")
    tracer.patch_method(CharacterizationPipeline, "characterize_wa",
                        "errors.wa")
    tracer.patch_method(TimingModel, "error_masks", "fpu.masks",
                        observe=count_vectors)
    tracer.patch(errors_pkg, "characterize_gate", "circuit.gate")
    tracer.patch_method(BitParallelTimingAnalysis, "analyze_batch",
                        "circuit.bitsim")
