"""Unified content-addressed artifact layer.

- :mod:`repro.artifacts.backend` — the flat byte-store protocol and its
  local-directory implementation (crash-consistent writes and orphan-tmp
  sweeping),
- :mod:`repro.artifacts.store` — the :class:`ArtifactStore`: immutable
  SHA-256-addressed objects, per-namespace keyed refs, quarantine for
  anything that fails verification, and local stream paths for
  append-oriented artifacts.

ModelCache (:mod:`repro.errors.pipeline`), PageStore
(:mod:`repro.uarch.snapshot`) and the sharded campaign journals
(:mod:`repro.campaign.shard`) are all served from this one layer, which
is what lets shard workers, coordinators and serving processes share
caches through a single directory (or, later, bucket).
"""

from repro.artifacts.backend import (
    Backend,
    LocalDirBackend,
    decode_key,
    encode_key,
)
from repro.artifacts.store import (
    ArtifactIntegrityError,
    ArtifactStore,
    ObjectCorruption,
    QUARANTINE_SUFFIX,
    object_address,
)

__all__ = [
    "ArtifactIntegrityError",
    "ArtifactStore",
    "Backend",
    "LocalDirBackend",
    "ObjectCorruption",
    "QUARANTINE_SUFFIX",
    "decode_key",
    "encode_key",
    "object_address",
]
