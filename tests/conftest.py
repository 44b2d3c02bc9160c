"""Shared fixtures: session-scoped golden runs and characterised models.

Golden runs and DTA characterisation are deterministic and moderately
expensive, so the suite builds them once per session at 'tiny' scale.
"""

import os
from typing import Dict, Iterator, Optional

import numpy as np
import pytest

try:
    from hypothesis import settings as _hyp_settings

    # Pinned profiles so property tests behave identically everywhere:
    # CI derandomizes (no flaky shrink-dependent failures, no deadline
    # variance on loaded runners); dev keeps random exploration but
    # drops the wall-clock deadline, which misfires under -n auto.
    _hyp_settings.register_profile("ci", deadline=None, derandomize=True)
    _hyp_settings.register_profile("dev", deadline=None)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    pass

from repro.artifacts import ArtifactStore
from repro.campaign.runner import CampaignRunner
from repro.circuit.liberty import NOMINAL, VR15, VR20
from repro.errors import characterize_da, characterize_ia, characterize_wa
from repro.fpu.formats import FpOp
from repro.fpu.unit import FPU
from repro.utils import durable
from repro.workloads import WORKLOADS, make_workload

POINTS = [VR15, VR20]


def op_counts(ctx) -> Dict[FpOp, int]:
    """Per-op dynamic instruction counts of an FP context.

    Read off the context's dense stream position (one count per
    ``FpOp``, in declaration order), the only per-op count it exposes.
    """
    counts, _ = ctx.checkpoint_position()
    return dict(zip(FpOp, counts))


@pytest.fixture(scope="session")
def fpu():
    return FPU()


@pytest.fixture(scope="session")
def tiny_runners():
    """One CampaignRunner per benchmark at 'tiny' scale, golden run done."""
    runners = {}
    for name in WORKLOADS:
        runner = CampaignRunner(make_workload(name, scale="tiny", seed=11),
                                seed=11)
        runner.golden()
        runners[name] = runner
    return runners


@pytest.fixture(scope="session")
def tiny_profiles(tiny_runners):
    return {name: runner.golden().profile
            for name, runner in tiny_runners.items()}


@pytest.fixture(scope="session")
def ia_model(fpu):
    return characterize_ia(POINTS, fpu=fpu, samples_per_op=20_000, seed=11)


@pytest.fixture(scope="session")
def da_model(fpu, tiny_profiles):
    return characterize_da(list(tiny_profiles.values()), POINTS, fpu=fpu,
                           sample_per_point=20_000, seed=11)


@pytest.fixture(scope="session")
def wa_models(fpu, tiny_profiles):
    return {name: characterize_wa(profile, POINTS, fpu=fpu)
            for name, profile in tiny_profiles.items()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


class MemoryBackend:
    """Dict-backed artifact backend speaking the ``Backend`` verbs."""

    def __init__(self):
        self._blobs: Dict[str, bytes] = {}

    def get(self, key: str) -> Optional[bytes]:
        return self._blobs.get(key)

    def put(self, key: str, data: bytes, target: str = "artifact") -> None:
        # The fault hook applies even in memory so chaos plans can
        # target artifact writes regardless of backend.
        written, failure = durable.get_fault_hook().filter_write(
            target, key, data)
        self._blobs[key] = bytes(written)
        if failure is not None:
            raise failure

    def delete(self, key: str) -> bool:
        return self._blobs.pop(key, None) is not None

    def rename(self, key: str, new_key: str) -> bool:
        blob = self._blobs.pop(key, None)
        if blob is None:
            return False
        self._blobs[new_key] = blob
        return True

    def list_keys(self, prefix: str = "") -> Iterator[str]:
        return iter(sorted(k for k in self._blobs if k.startswith(prefix)))


def memory_store() -> ArtifactStore:
    """A fresh artifact store over a :class:`MemoryBackend`."""
    return ArtifactStore(MemoryBackend())
