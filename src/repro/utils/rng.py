"""Deterministic random-number streams for reproducible injection campaigns.

Every stochastic component of the framework (operand generation, injection
cycle selection, DA-model bit choice, Monte-Carlo characterisation) draws
from a named :class:`RngStream` derived from a single campaign seed, so a
campaign re-run with the same seed reproduces every outcome bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A named, independently seeded ``numpy`` generator.

    Thin wrapper around :class:`numpy.random.Generator` that remembers its
    derivation (root seed + name) so campaign manifests can record exactly
    which stream produced which decision.
    """

    def __init__(self, root_seed: int, name: str):
        self.root_seed = int(root_seed)
        self.name = name
        self.seed = _derive_seed(self.root_seed, name)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, suffix: str) -> "RngStream":
        """Derive a sub-stream, e.g. one per injection run."""
        return RngStream(self.root_seed, f"{self.name}/{suffix}")

    # Convenience passthroughs -------------------------------------------------
    def integers(self, low, high=None, size=None, dtype=np.int64):
        return self.generator.integers(low, high=high, size=size, dtype=dtype)

    def random(self, size=None):
        return self.generator.random(size=size)

    def uint64(self, size=None) -> np.ndarray:
        """Uniform random 64-bit patterns (the DTA random-operand source)."""
        return self.generator.integers(0, 1 << 64, size=size, dtype=np.uint64)

    def choice(self, values, size=None, replace=True, p=None):
        return self.generator.choice(values, size=size, replace=replace, p=p)

    def shuffle(self, values) -> None:
        self.generator.shuffle(values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStream(root_seed={self.root_seed}, name={self.name!r})"

