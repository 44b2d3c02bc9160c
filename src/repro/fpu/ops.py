"""Vectorised golden execution of the 12 FPU instructions.

Hardware IEEE-754 (numpy float32/float64) *is* the bit-exact architectural
result for add/sub/mul/div — the property-based test-suite proves our
from-scratch softfloat agrees with it bit-for-bit — so campaigns execute
millions of golden operations at numpy speed.  All functions operate on
raw bit patterns stored in ``uint64`` arrays (single-precision patterns
live in the low 32 bits).
"""

from __future__ import annotations

import numpy as np

from repro.fpu.formats import FpOp
from repro.utils import ieee754

_U = np.uint64


def _as_f64(bits: np.ndarray) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _as_f32(bits: np.ndarray) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).astype(np.uint32).view(np.float32)


def _from_f64(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64).copy()


def _from_f32(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint32).astype(np.uint64)


def _f2i_double(bits: np.ndarray) -> np.ndarray:
    """double -> int64, round toward zero, saturating, NaN -> 0."""
    values = _as_f64(bits)
    out = np.zeros(values.shape, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(values)
        hi = values >= 2.0**63
        lo = values < -(2.0**63)
        ok = finite & ~hi & ~lo
        trunc = np.trunc(np.where(ok, values, 0.0))
        out[ok] = trunc[ok].astype(np.int64)
        out[hi | (np.isinf(values) & (values > 0))] = np.iinfo(np.int64).max
        out[lo | (np.isinf(values) & (values < 0))] = np.iinfo(np.int64).min
        out[np.isnan(values)] = 0
    return out.view(np.uint64).copy()


def _f2i_single(bits: np.ndarray) -> np.ndarray:
    """single -> int32, round toward zero, saturating, NaN -> 0."""
    values = _as_f32(bits).astype(np.float64)
    out = np.zeros(values.shape, dtype=np.int64)
    hi = values >= 2.0**31
    lo = values < -(2.0**31)
    ok = np.isfinite(values) & ~hi & ~lo
    trunc = np.trunc(np.where(ok, values, 0.0))
    out[ok] = trunc[ok].astype(np.int64)
    out[hi] = np.iinfo(np.int32).max
    out[lo] = np.iinfo(np.int32).min
    out[np.isnan(values)] = 0
    return (out.astype(np.int64) & np.int64(0xFFFFFFFF)).astype(np.uint64)


def golden(op: FpOp, a: np.ndarray, b: np.ndarray = None) -> np.ndarray:
    """Execute one instruction over arrays of raw bit patterns.

    Returns the raw result patterns as ``uint64`` (int results for f2i use
    two's-complement encoding; single-precision results occupy the low
    32 bits).
    """
    a = np.asarray(a, dtype=np.uint64)
    if op.has_two_operands:
        if b is None:
            raise ValueError(f"{op} requires two operands")
        b = np.asarray(b, dtype=np.uint64)

    kind, dbl = op.kind, op.is_double
    with np.errstate(all="ignore"):
        if kind in ("add", "sub", "mul", "div"):
            fn = {"add": np.add, "sub": np.subtract,
                  "mul": np.multiply, "div": np.divide}[kind]
            if dbl:
                return _from_f64(fn(_as_f64(a), _as_f64(b)))
            return _from_f32(fn(_as_f32(a), _as_f32(b)))
        if kind == "i2f":
            if dbl:
                return _from_f64(a.view(np.int64).astype(np.float64))
            low = a.astype(np.uint32).view(np.int32)
            return _from_f32(low.astype(np.float32))
        if kind == "f2i":
            return _f2i_double(a) if dbl else _f2i_single(a)
    raise ValueError(f"unhandled operation {op}")


def values_to_bits(op: FpOp, values: np.ndarray) -> np.ndarray:
    """Encode float values as operand bit patterns for ``op``'s format."""
    if op.is_double:
        return ieee754.floats_to_bits64(values)
    return ieee754.floats_to_bits32(values).astype(np.uint64)
