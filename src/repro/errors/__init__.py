"""Timing-error models (Table I of the paper) and their characterisation.

- :mod:`repro.errors.base` — common interfaces: workload profiles,
  injection plans, the :class:`ErrorModel` contract,
- :mod:`repro.errors.da` — data-agnostic model (fixed error ratio),
- :mod:`repro.errors.ia` — instruction-aware statistical model,
- :mod:`repro.errors.wa` — the proposed instruction- and workload-aware
  model backed by trace-level dynamic timing analysis,
- :mod:`repro.errors.characterize` — the IA random-operand source and
  gate-level DTA characterisation,
- :mod:`repro.errors.pipeline` — the characterization engine that
  builds all three models from DTA (worker pool, chunk-invariant RNG
  blocks, on-disk model cache) and its entry points
  ``characterize_ia`` / ``characterize_da`` / ``characterize_wa``.
"""

from repro.errors.base import (
    ErrorModel,
    InjectionPlan,
    Victim,
    WorkloadProfile,
)
from repro.errors.da import DaModel
from repro.errors.ia import IaModel
from repro.errors.wa import WaModel
from repro.errors.characterize import (
    GateCharacterization,
    characterize_gate,
    random_operands,
    random_vector_words,
)
from repro.errors.pipeline import (
    CharacterizationPipeline,
    ModelCache,
    PipelineConfig,
    PipelineError,
    cache_key,
    characterize_da,
    characterize_ia,
    characterize_wa,
    make_pipeline,
    trace_digest,
)

__all__ = [
    "CharacterizationPipeline",
    "ModelCache",
    "PipelineConfig",
    "PipelineError",
    "cache_key",
    "make_pipeline",
    "trace_digest",
    "ErrorModel",
    "InjectionPlan",
    "Victim",
    "WorkloadProfile",
    "DaModel",
    "IaModel",
    "WaModel",
    "GateCharacterization",
    "characterize_da",
    "characterize_gate",
    "characterize_ia",
    "characterize_wa",
    "random_operands",
    "random_vector_words",
]
