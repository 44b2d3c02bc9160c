"""Shared experiment context: workloads, golden runs, characterised models.

Building the context once (golden runs + DTA characterisation for every
benchmark) is the model-development phase of Fig. 2; each experiment
driver then reuses it.  ``ExperimentContext.create`` is deterministic in
its seed, so every driver regenerates identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.adaptive import (
    AdaptiveConfig,
    AdaptiveReport,
    ImportanceModel,
    run_adaptive_cells,
)
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.fastforward import FastForwardConfig
from repro.campaign.journal import RunJournal
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.circuit.liberty import OperatingPoint, VR15, VR20
from repro.errors import (
    CharacterizationPipeline,
    DaModel,
    IaModel,
    WaModel,
    make_pipeline,
)
from repro.errors.base import ErrorModel, WorkloadProfile
from repro.fpu.unit import FPU
from repro.workloads import make_workload

#: Table II benchmark order.
BENCHMARKS = ("sobel", "cg", "kmeans", "srad_v1", "hotspot", "is", "mg")


def ensure_context(context: Optional["ExperimentContext"],
                   scale: str = "small", seed: int = 2021,
                   samples: int = 50_000,
                   benchmarks: Optional[Sequence[str]] = None,
                   workers: int = 0,
                   chunk: Optional[int] = None,
                   cache_dir: Optional[Union[str, Path]] = None,
                   ) -> "ExperimentContext":
    """Reuse a supplied context or build one from the uniform options.

    Every registry driver funnels its ``scale`` / ``seed`` / ``samples``
    / ``benchmarks`` options through here, so the model-development
    phase is configured identically no matter which artifact asked for
    it.  ``workers`` / ``chunk`` / ``cache_dir`` configure the
    characterization pipeline (:func:`repro.errors.make_pipeline`): its
    worker pool, chunk size and model cache.  None of them changes a
    model.
    """
    if context is not None:
        return context
    return ExperimentContext.create(
        scale=scale, seed=seed, characterization_samples=samples,
        benchmarks=tuple(benchmarks) if benchmarks else BENCHMARKS,
        workers=workers, chunk=chunk, cache_dir=cache_dir,
    )


@dataclass
class ExperimentContext:
    """Everything the evaluation-phase drivers need, built once."""

    scale: str
    seed: int
    points: List[OperatingPoint]
    fpu: FPU
    runners: Dict[str, CampaignRunner]
    profiles: Dict[str, WorkloadProfile]
    da: DaModel
    ia: IaModel
    wa: Dict[str, WaModel]
    #: The characterization pipeline the models were built with.
    pipeline: CharacterizationPipeline
    #: Stop-decision/budget report of the most recent adaptive
    #: ``run_campaigns`` call (``None`` until one runs adaptively).
    adaptive_report: Optional[AdaptiveReport] = None

    @classmethod
    def create(cls, scale: str = "small", seed: int = 2021,
               points: Optional[Sequence[OperatingPoint]] = None,
               characterization_samples: int = 50_000,
               benchmarks: Sequence[str] = BENCHMARKS,
               workers: int = 0,
               chunk: Optional[int] = None,
               cache_dir: Optional[Union[str, Path]] = None,
               fastforward: Optional[FastForwardConfig] = None,
               ) -> "ExperimentContext":
        """Model-development phase over the chosen benchmarks.

        All three characterisations run on one pipeline built from
        ``workers`` / ``chunk`` / ``cache_dir``; the models are
        bit-identical for any of them, and cached artifacts make repeat
        builds near-free.  ``fastforward``
        configures the campaign runners' snapshot engine (``None`` keeps
        the default-on configuration; pass
        ``FastForwardConfig(enabled=False)`` for full replay).
        """
        points = list(points) if points else [VR15, VR20]
        fpu = FPU()
        pipeline = make_pipeline(workers, chunk, cache_dir, fpu=fpu)
        runners: Dict[str, CampaignRunner] = {}
        profiles: Dict[str, WorkloadProfile] = {}
        wa: Dict[str, WaModel] = {}
        for name in benchmarks:
            workload = make_workload(name, scale=scale, seed=seed)
            runner = CampaignRunner(workload, seed=seed,
                                    fastforward=fastforward)
            golden = runner.golden()
            runners[name] = runner
            profiles[name] = golden.profile
            wa[name] = pipeline.characterize_wa(golden.profile, points)
        ia = pipeline.characterize_ia(
            points, samples_per_op=characterization_samples, seed=seed)
        da = pipeline.characterize_da(
            list(profiles.values()), points,
            sample_per_point=characterization_samples, seed=seed)
        return cls(scale=scale, seed=seed, points=points, fpu=fpu,
                   runners=runners, profiles=profiles, da=da, ia=ia, wa=wa,
                   pipeline=pipeline)

    @property
    def benchmarks(self) -> List[str]:
        return list(self.runners)

    def models_for(self, benchmark: str) -> List[ErrorModel]:
        """The three compared models (Table I order) for one benchmark."""
        return [self.da, self.ia, self.wa[benchmark]]

    def run_campaigns(self, runs: int,
                      benchmarks: Optional[Sequence[str]] = None,
                      config: Optional[ExecutorConfig] = None,
                      journal: Optional[RunJournal] = None,
                      adaptive: Optional[AdaptiveConfig] = None,
                      importance: bool = False,
                      ) -> List[CampaignResult]:
        """All (benchmark x model x point) campaign cells (Figs. 9/10).

        ``config`` selects the fault-tolerance posture (worker count,
        watchdog, retries); one ``journal`` is shared across every cell
        so a killed multi-benchmark campaign resumes as a whole.

        ``adaptive`` switches every cell to sequential CI-target
        sampling with ``runs`` as the per-cell budget ceiling; saved
        runs are reallocated across cells and the stop-decision report
        lands in :attr:`adaptive_report`.  ``importance`` additionally
        wraps each WA model in an
        :class:`~repro.campaign.adaptive.ImportanceModel` (victims drawn
        from the timing model's per-event error mass, AVM reweighted by
        Horvitz–Thompson so it stays unbiased).
        """
        if importance and adaptive is None:
            raise ValueError(
                "importance sampling requires an AdaptiveConfig "
                "(pass adaptive=AdaptiveConfig(importance=True))")
        owns_journal = False
        if journal is None and config is not None and config.journal_path:
            journal = RunJournal.open(config.journal_path, seed=self.seed,
                                      resume=config.resume)
            owns_journal = True
        results: List[CampaignResult] = []
        try:
            cells = []
            for name in (benchmarks or self.benchmarks):
                executor = CampaignExecutor(self.runners[name],
                                            config=config, journal=journal)
                for model in self.models_for(name):
                    if importance and getattr(model, "workload_aware",
                                              False):
                        model = ImportanceModel(model)
                    for point in self.points:
                        if adaptive is not None:
                            cells.append((executor, model, point))
                        else:
                            results.append(
                                executor.run_cell(model, point, runs=runs)
                            )
            if adaptive is not None:
                results, report = run_adaptive_cells(cells, adaptive,
                                                     runs=runs)
                self.adaptive_report = report
        finally:
            if owns_journal:
                journal.close()
        return results
