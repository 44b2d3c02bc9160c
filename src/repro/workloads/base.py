"""Workload infrastructure: FP interposition, budgets, classification.

:class:`FPContext` is the boundary between guest algorithms and the FPU:
all floating-point arithmetic of a benchmark flows through it, element by
element in dynamic-instruction order (vector calls count one dynamic FP
instruction per element).  The context

- counts the per-type dynamic instruction stream,
- optionally records operand bit patterns (the WA characterisation trace),
- applies injection bitmasks to the destination values of victim dynamic
  instructions, and
- enforces the 2x-golden execution budget that implements the paper's
  Timeout category, plus optional FP-exception trapping (a Crash source).
"""

from __future__ import annotations

import abc
import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors.base import WorkloadProfile
from repro.fpu.formats import FpOp
from repro.utils import ieee754


class GuestCrash(Exception):
    """The guest program hit an unrecoverable condition (process crash)."""


class GuestFpException(GuestCrash):
    """A floating-point exception terminated the guest (paper: Crash)."""


class GuestTimeout(Exception):
    """The guest exceeded 2x the error-free execution budget."""


#: FPContext dispatch entries ``(op, dense index, kind, ufunc, is_double)``
#: passed by the public methods, so no call hashes an ``FpOp``.  The dense
#: index keys the counters, victims and trace buffers.
_OPS: Tuple[FpOp, ...] = tuple(FpOp)
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide}
_ENTRIES = {op: (op, index, op.kind, _UFUNCS.get(op.kind), op.is_double)
            for index, op in enumerate(_OPS)}
(_ADD_D, _SUB_D, _MUL_D, _DIV_D, _ADD_S, _SUB_S, _MUL_S, _DIV_S, _I2F_D,
 _F2I_D) = (_ENTRIES[op] for op in (
     FpOp.ADD_D, FpOp.SUB_D, FpOp.MUL_D, FpOp.DIV_D, FpOp.ADD_S,
     FpOp.SUB_S, FpOp.MUL_S, FpOp.DIV_S, FpOp.I2F_D, FpOp.F2I_D))
_F64 = np.dtype(np.float64)
_FLOATS = (float, np.float64)
_SCALARS = (float, int, np.floating, np.integer)


def _is_scalar(x) -> bool:
    """A Python/numpy real scalar or a 0-d real array."""
    return isinstance(x, _SCALARS) or (
        type(x) is np.ndarray and x.ndim == 0 and x.dtype.kind in "fiub")


def _is_f64_array(x) -> bool:
    return type(x) is np.ndarray and x.dtype == _F64 and x.ndim > 0


def _tree_sum(arr: np.ndarray, add) -> float:
    """Fold ``arr`` pairwise with ``add``, one call per tree level."""
    while arr.size > 1:
        half = arr.size // 2
        paired = add(arr[:half], arr[half:2 * half])
        if arr.size % 2:
            arr = np.concatenate([paired, arr[2 * half:]])
        else:
            arr = paired
    return float(arr[0]) if arr.size else 0.0


def _fast_size(a, b) -> Optional[int]:
    """The element count of a call on float64 arrays (ndim >= 1) and
    Python/``np.float64`` scalars; ``None`` for any other operand."""
    if _is_f64_array(a):
        if _is_f64_array(b):
            return a.size if a.shape == b.shape else np.broadcast(a, b).size
        return a.size if type(b) in _FLOATS else None
    if type(a) in _FLOATS:
        return 1 if type(b) in _FLOATS else (
            b.size if _is_f64_array(b) else None)
    return None


class FPContext:
    """FP interposition layer between a guest algorithm and the FPU.

    No ``np.errstate`` is entered per operation: ``CampaignRunner``
    silences FP warnings once around each guest execution, and direct
    callers see numpy's warnings.  ``corruption`` is read once, here.
    A clean call (:meth:`_clean`) applies the ufunc to its operands as
    given; every other call runs the exact core :meth:`_binary_flat`.
    """

    def __init__(
        self,
        corruption: Optional[Dict[FpOp, Dict[int, int]]] = None,
        record_trace: bool = False,
        trace_cap: int = 1_000_000,
        op_budget: Optional[int] = None,
        trap_nonfinite: bool = False,
        sequence_cap: int = 40_000,
    ):
        self.corruption = corruption or {}
        self.record_trace = record_trace
        self.trace_cap = trace_cap
        self.op_budget = op_budget
        self.trap_nonfinite = trap_nonfinite
        self.sequence_cap = sequence_cap

        self.ops_executed = 0
        self.corrupted_events = 0
        self._armed = False  # a corruption has landed; start trap checks
        self._counts: List[int] = [0] * len(_OPS)
        # Dense by op slot; ``_OPS.index`` compares by identity, so
        # building it hashes no FpOp.
        self._victims: List[Optional[Dict[int, int]]] = [None] * len(_OPS)
        for op, victims in self.corruption.items():
            self._victims[_OPS.index(op)] = victims
        # Per-op sorted victim indices, bisected by the fast-path test.
        self._victim_keys = [sorted(v) if v else [] for v in self._victims]
        # (dense index, first/last victim index) of each op with victims.
        self.first_victims = [(index, keys[0]) for index, keys
                              in enumerate(self._victim_keys) if keys]
        self._last_victims = [(index, keys[-1]) for index, keys
                              in enumerate(self._victim_keys) if keys]
        # Trace buffers keyed by dense index, in first-recorded order.
        self._trace_a: Dict[int, List[np.ndarray]] = {}
        self._trace_b: Dict[int, List[np.ndarray]] = {}
        self._trace_len: Dict[int, int] = {}
        self.op_sequence: List[Tuple[FpOp, int]] = []  # run-length encoded

    def victims_passed(self) -> bool:
        """Whether every op's counter has moved past its last victim."""
        counts = self._counts
        return all(counts[index] > last for index, last in self._last_victims)

    # -- public arithmetic API (double precision) ---------------------------------
    def add(self, a, b):
        return self._binary(_ADD_D, a, b)

    def sub(self, a, b):
        return self._binary(_SUB_D, a, b)

    def mul(self, a, b):
        return self._binary(_MUL_D, a, b)

    def div(self, a, b):
        return self._binary(_DIV_D, a, b)

    def i2f(self, values):
        return self._conv(_I2F_D, values)

    def f2i(self, values):
        return self._conv(_F2I_D, values)

    # Single-precision variants (operands rounded to binary32 first).
    def add_s(self, a, b):
        return self._binary(_ADD_S, a, b)

    def sub_s(self, a, b):
        return self._binary(_SUB_S, a, b)

    def mul_s(self, a, b):
        return self._binary(_MUL_S, a, b)

    def div_s(self, a, b):
        return self._binary(_DIV_S, a, b)

    # Reductions built from the primitive stream.
    def sum(self, values):
        """Sequential-tree sum through the FPU add stream.

        Each tree level is one ``add`` of the pairs it folds; an odd
        element carries to the next level unchanged.  A clean tree is
        charged at once, unless traps are armed and its root (which any
        non-finite level value reaches) is not finite: then, like every
        other tree, it runs level by level through the exact core.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        op, index = _ADD_D[:2]
        if arr.size > 1 and self._clean(index, arr.size - 1):
            total = _tree_sum(arr, np.add)
            if math.isfinite(total) or not (self.trap_nonfinite
                                            and self._armed):
                self._charge(op, index, arr.size - 1)
                return total
        return _tree_sum(arr, lambda a, b: self._binary_flat(_ADD_D, a, b))

    def dot(self, a, b):
        """Dot product: elementwise multiplies + tree sum."""
        return self.sum(self.mul(a, b))

    # -- internals --------------------------------------------------------------
    def _clean(self, index: int, n: int) -> bool:
        """Whether ``n`` more ops of ``index`` can take the fast path."""
        keys = self._victim_keys[index]
        start = self._counts[index]
        after = bisect_left(keys, start)  # the first victim >= start
        budget = self.op_budget
        return (not self.record_trace
                and (after == len(keys) or keys[after] >= start + n)
                and (budget is None or self.ops_executed + n <= budget))

    def _charge(self, op: FpOp, index: int, n: int) -> int:
        counts = self._counts
        start = counts[index]
        counts[index] = start + n
        self.ops_executed += n
        if self.op_budget is not None and self.ops_executed > self.op_budget:
            raise GuestTimeout(
                f"exceeded budget of {self.op_budget} FP operations"
            )
        sequence = self.op_sequence
        if sequence and sequence[-1][0] is op:
            sequence[-1] = (op, sequence[-1][1] + n)
        elif len(sequence) < self.sequence_cap:
            sequence.append((op, n))
        return start

    def _record(self, index: int, a_bits: np.ndarray,
                b_bits: Optional[np.ndarray]) -> None:
        kept = self._trace_len.get(index, 0)
        if kept >= self.trace_cap:
            return
        room = self.trace_cap - kept
        self._trace_a.setdefault(index, []).append(a_bits[:room].copy())
        if b_bits is not None:
            self._trace_b.setdefault(index, []).append(b_bits[:room].copy())
        self._trace_len[index] = kept + min(room, a_bits.size)

    def _apply_corruption(self, victims: Dict[int, int], start: int,
                          result_bits: np.ndarray) -> bool:
        n = result_bits.size
        touched = False
        for index, mask in victims.items():
            offset = index - start
            if 0 <= offset < n:
                result_bits[offset] ^= np.uint64(mask)
                self.corrupted_events += 1
                touched = True
        return touched

    def _trap_check(self, values) -> None:
        # A finite sum proves every element finite (inf/NaN absorb).
        if (self.trap_nonfinite and self._armed
                and not math.isfinite(np.add.reduce(values, None))
                and not np.isfinite(values).all()):
            raise GuestFpException("non-finite value raised SIGFPE")

    def _binary_flat(self, entry, a: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
        """The exact arithmetic core: two equal-size 1-d float64
        operands in, a fresh 1-d float64 result out.

        Charges the budget, records the operand trace, applies the
        corruption landing in this call and checks traps once armed.
        """
        op, index, _, ufunc, double = entry
        start = self._charge(op, index, a.size)
        if not double:
            a = a.astype(np.float32)
            b = b.astype(np.float32)
        result = ufunc(a, b)

        if self.record_trace:
            if double:
                self._record(index, a.view(np.uint64), b.view(np.uint64))
            else:
                self._record(
                    index,
                    ieee754.floats_to_bits32(a).astype(np.uint64),
                    ieee754.floats_to_bits32(b).astype(np.uint64))

        victims = self._victims[index]
        if victims:
            if double:
                if self._apply_corruption(victims, start,
                                          result.view(np.uint64)):
                    self._armed = True
            else:
                bits = result.view(np.uint32).astype(np.uint64)
                if self._apply_corruption(victims, start, bits):
                    result = bits.astype(np.uint32).view(np.float32)
                    self._armed = True
        if not double:
            result = result.astype(np.float64)

        if self._armed:
            self._trap_check(result)
        return result

    def _binary(self, entry, a, b):
        """Shape wrapper around :meth:`_binary_flat` (numpy broadcasting;
        a 0-d result comes back as an ``np.float64`` scalar).

        A clean double-precision call on float64 arrays and float
        scalars takes the fast path.  Otherwise a scalar against a float64
        array is filled to its shape and every other mix is broadcast.
        """
        op, index, _, ufunc, double = entry
        if double:
            n = _fast_size(a, b)
            if n is not None and self._clean(index, n):
                self._charge(op, index, n)
                result = ufunc(a, b)
                if self._armed:
                    self._trap_check(result)
                return result
        if _is_f64_array(b) and _is_scalar(a):
            a = np.full(b.shape, float(a))
        elif _is_f64_array(a) and _is_scalar(b):
            b = np.full(a.shape, float(b))
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        result = self._binary_flat(entry, a.ravel(), b.ravel())
        return result.reshape(a.shape) if a.ndim else result[0]

    def _conv(self, entry, values):
        op, index, kind, _, _ = entry
        shaped = np.asarray(values)
        scalar = shaped.ndim == 0
        arr = shaped.ravel()
        start = self._charge(op, index, arr.size)
        victims = self._victims[index]
        if kind == "i2f":
            src = arr.astype(np.int64)
            if self.record_trace:
                self._record(index, src.view(np.uint64), None)
            result = src.astype(np.float64)
            if victims and self._apply_corruption(
                    victims, start, result.view(np.uint64)):
                self._armed = True
            self._trap_check(result)
            return result[0] if scalar else result.reshape(shaped.shape)
        # f2i: round toward zero, saturating (matches the FPU semantics).
        src = arr.astype(np.float64)
        if self.record_trace:
            self._record(index, src.view(np.uint64), None)
        clipped = np.where(np.isnan(src), 0.0,
                           np.clip(src, -2.0**62, 2.0**62))
        result = np.trunc(clipped).astype(np.int64)
        if victims and self._apply_corruption(
                victims, start, result.view(np.uint64)):
            self._armed = True
        return int(result[0]) if scalar else result.reshape(shaped.shape)

    # -- checkpoint position ----------------------------------------------------------
    def checkpoint_position(self) -> Tuple[Tuple[int, ...], int]:
        """The RNG-independent stream position: per-op counts + total.

        The counts are dense, one per ``FpOp`` in declaration order.  This
        pair fully determines where corruption indices land and when the
        op budget expires, so restoring it (plus the workload state)
        resumes an execution bit-identically.
        """
        return tuple(self._counts), self.ops_executed

    def restore_position(self, counts: Sequence[int],
                         ops_executed: int) -> None:
        """Fast-forward this context to a recorded stream position."""
        self._counts = list(counts)
        self.ops_executed = int(ops_executed)

    # -- profile extraction ---------------------------------------------------------
    def profile(self, name: str, ops_per_fp: float) -> WorkloadProfile:
        """Summarise the run into a :class:`WorkloadProfile` (golden runs)."""
        trace: Dict[FpOp, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        for index, chunks in self._trace_a.items():
            a_bits = np.concatenate(chunks) if chunks else np.zeros(0, np.uint64)
            b_chunks = self._trace_b.get(index)
            b_bits = np.concatenate(b_chunks) if b_chunks else None
            trace[_OPS[index]] = (a_bits, b_bits)
        counts = {op: n for op, n in zip(_OPS, self._counts) if n > 0}
        fp_total = sum(counts.values())
        return WorkloadProfile(
            name=name,
            counts_by_op=counts,
            trace_by_op=trace,
            total_instructions=int(round(fp_total * (1.0 + ops_per_fp))),
        )

    def fp_op_sequence(self, limit: int = 100_000) -> List[FpOp]:
        """Expand the run-length encoded op sequence (for trace synthesis)."""
        out: List[FpOp] = []
        for op, n in self.op_sequence:
            take = min(n, limit - len(out))
            out.extend([op] * take)
            if len(out) >= limit:
                break
        return out


class Workload(abc.ABC):
    """One Table II benchmark.

    Subclasses build a deterministic input at construction, implement
    :meth:`run` entirely through the supplied :class:`FPContext`, and
    define :meth:`outputs_equal` per their Table II classification
    criterion.
    """

    #: Table II name, input descriptor and classification criterion.
    name: str = "?"
    classification = "Output comparison"
    #: Key into repro.uarch.trace.MIXES.
    mix_name: str = "default"
    #: Whether the guest runs with FP-exception trapping (Crash source).
    trap_nonfinite: bool = False

    def __init__(self, scale: str = "paper", seed: int = 2021):
        if scale not in ("tiny", "small", "paper"):
            raise ValueError(f"unknown scale {scale!r}")
        self.scale = scale
        self.seed = seed
        self.input_descriptor = ""
        self._build_input()

    @abc.abstractmethod
    def _build_input(self) -> None:
        """Create the deterministic input arrays for the chosen scale."""

    @abc.abstractmethod
    def run(self, ctx: FPContext):
        """Execute the benchmark through ``ctx``; return its output."""

    @abc.abstractmethod
    def outputs_equal(self, golden, observed) -> bool:
        """Table II classification: does the output verify against golden?"""

    # -- checkpointable step protocol ---------------------------------------------
    #: Whether this workload implements the step protocol below.  Workloads
    #: that keep a monolithic :meth:`run` stay non-checkpointable and
    #: campaigns transparently fall back to full replay for them.
    checkpointable: bool = False

    def initial_state(self) -> Dict[str, object]:
        """Fresh mutable state dict for :meth:`advance` (no FP ops)."""
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def advance(self, ctx: FPContext, state: Dict[str, object]) -> bool:
        """Execute one outer step, mutating ``state``; True while more remain.

        The concatenated FP-op stream of ``initial_state`` + ``advance``
        calls + ``finalize`` must be identical to :meth:`run`'s — that
        equivalence is what makes snapshots at step boundaries sound.
        """
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def finalize(self, ctx: FPContext, state: Dict[str, object]):
        """Produce the final output from a fully-advanced ``state``."""
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def run_from(self, ctx: FPContext, state: Dict[str, object]):
        """Drive the step protocol from ``state`` to the final output."""
        while self.advance(ctx, state):
            pass
        return self.finalize(ctx, state)

    def sdc_magnitude(self, golden, observed) -> Optional[float]:
        """How wrong an SDC output is: relative L2 error vs golden.

        Purely observational (replayed drill-downs); never part of
        classification, which stays with :meth:`outputs_equal`.  Returns
        ``None`` when the outputs don't admit a numeric distance (shape
        mismatch, non-array output, zero-norm golden with equal shapes).
        """
        try:
            with np.errstate(all="ignore"):
                g = np.asarray(golden, dtype=np.float64)
                o = np.asarray(observed, dtype=np.float64)
                if g.shape != o.shape:
                    return None
                denom = float(np.linalg.norm(g.ravel()))
                diff = float(np.linalg.norm((o - g).ravel()))
                if np.isnan(diff):
                    # Non-finite corruption: infinitely far from golden.
                    return float("inf")
                if denom > 0.0:
                    return diff / denom
                return diff if diff > 0.0 else None
        except (TypeError, ValueError):
            return None

    @property
    def ops_per_fp(self) -> float:
        from repro.uarch.trace import MIXES

        return MIXES.get(self.mix_name, MIXES["default"]).ops_per_fp

    def make_context(self, **kwargs) -> FPContext:
        kwargs.setdefault("trap_nonfinite", self.trap_nonfinite)
        return FPContext(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(scale={self.scale!r})"
