"""Shared low-level utilities: bit manipulation, IEEE-754 helpers, RNG, statistics."""

from repro.utils.bitops import bit_length64, count_ones
from repro.utils.rng import RngStream
from repro.utils.stats import (
    confidence_sample_size,
    geometric_mean,
    ratio_divergence,
)

__all__ = [
    "bit_length64",
    "count_ones",
    "RngStream",
    "confidence_sample_size",
    "geometric_mean",
    "ratio_divergence",
]
