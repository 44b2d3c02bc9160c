"""Bit-identity oracle for the FPContext hot path.

``FPContext`` runs every binary op through one flat core
(``_binary_flat``) that ``_binary`` and each ``sum`` tree level share,
keys its counters by a dense op index and leaves ``np.errstate`` to the
guest execution around it.  ``ReferenceFPContext`` below is a frozen
copy of the earlier per-call implementation (``np.broadcast_arrays`` and
``np.errstate`` on every call, ``sum`` through the public ``add``,
counters keyed by ``FpOp``).  Random call programs and every workload
must give the same result bits, dtypes, shapes and Python types, the
same exceptions and the same counters, op stream, corruption events,
trap state, stream position and operand traces under both.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.errors.base import WorkloadProfile  # noqa: E402
from repro.fpu.formats import FpOp  # noqa: E402
from repro.utils import ieee754  # noqa: E402
from repro.workloads import WORKLOADS, make_workload  # noqa: E402
from repro.workloads.base import (  # noqa: E402
    FPContext,
    GuestFpException,
    GuestTimeout,
)

from tests.conftest import op_counts  # noqa: E402


# -- frozen reference implementation -------------------------------------------

_REF_BINARY_FNS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}


class ReferenceFPContext:
    """The per-call FPContext, frozen as the oracle."""

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

        self.counters: Dict[FpOp, int] = {op: 0 for op in FpOp}
        self.ops_executed = 0
        self.corrupted_events = 0
        self._armed = False  # a corruption has landed; start trap checks
        self._trace_a: Dict[FpOp, List[np.ndarray]] = {}
        self._trace_b: Dict[FpOp, List[np.ndarray]] = {}
        self._trace_len: Dict[FpOp, int] = {}
        self.op_sequence: List[Tuple[FpOp, int]] = []  # run-length encoded

    # -- public arithmetic API (double precision) ---------------------------------
    def add(self, a, b):
        return self._binary(FpOp.ADD_D, a, b)

    def sub(self, a, b):
        return self._binary(FpOp.SUB_D, a, b)

    def mul(self, a, b):
        return self._binary(FpOp.MUL_D, a, b)

    def div(self, a, b):
        return self._binary(FpOp.DIV_D, a, b)

    def i2f(self, values):
        return self._conv(FpOp.I2F_D, values)

    def f2i(self, values):
        return self._conv(FpOp.F2I_D, values)

    # Single-precision variants (operands rounded to binary32 first).
    def add_s(self, a, b):
        return self._binary(FpOp.ADD_S, a, b)

    def sub_s(self, a, b):
        return self._binary(FpOp.SUB_S, a, b)

    def mul_s(self, a, b):
        return self._binary(FpOp.MUL_S, a, b)

    def div_s(self, a, b):
        return self._binary(FpOp.DIV_S, a, b)

    # Reductions built from the primitive stream.
    def sum(self, values):
        """Sequential-tree sum through the FPU add stream."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        while arr.size > 1:
            half = arr.size // 2
            paired = self.add(arr[:half], arr[half:2 * half])
            if arr.size % 2:
                arr = np.concatenate([np.atleast_1d(paired),
                                      arr[2 * half:]])
            else:
                arr = np.atleast_1d(paired)
        return float(arr[0]) if arr.size else 0.0

    def dot(self, a, b):
        """Dot product: elementwise multiplies + tree sum."""
        return self.sum(self.mul(a, b))

    # -- internals --------------------------------------------------------------
    def _charge(self, op: FpOp, n: int) -> int:
        start = self.counters[op]
        self.counters[op] = start + n
        self.ops_executed += n
        if self.op_budget is not None and self.ops_executed > self.op_budget:
            raise GuestTimeout(
                f"exceeded budget of {self.op_budget} FP operations"
            )
        if self.op_sequence and self.op_sequence[-1][0] is op:
            last_op, last_n = self.op_sequence[-1]
            self.op_sequence[-1] = (last_op, last_n + n)
        elif len(self.op_sequence) < self.sequence_cap:
            self.op_sequence.append((op, n))
        return start

    def _record(self, op: FpOp, a_bits: np.ndarray,
                b_bits: Optional[np.ndarray]) -> None:
        kept = self._trace_len.get(op, 0)
        if kept >= self.trace_cap:
            return
        room = self.trace_cap - kept
        self._trace_a.setdefault(op, []).append(a_bits[:room].copy())
        if b_bits is not None:
            self._trace_b.setdefault(op, []).append(b_bits[:room].copy())
        self._trace_len[op] = kept + min(room, a_bits.size)

    def _apply_corruption(self, op: FpOp, start: int,
                          result_bits: np.ndarray) -> bool:
        victims = self.corruption.get(op)
        if not victims:
            return False
        n = result_bits.size
        touched = False
        for index, mask in victims.items():
            offset = index - start
            if 0 <= offset < n:
                result_bits[offset] ^= np.uint64(mask)
                self.corrupted_events += 1
                touched = True
        return touched

    def _trap_check(self, values: np.ndarray) -> None:
        if self.trap_nonfinite and self._armed:
            if not np.isfinite(values).all():
                raise GuestFpException("non-finite value raised SIGFPE")

    def _binary(self, op: FpOp, a, b):
        a_arr, b_arr = np.broadcast_arrays(
            np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        )
        scalar = a_arr.ndim == 0
        a_flat = np.atleast_1d(a_arr).ravel()
        b_flat = np.atleast_1d(b_arr).ravel()
        n = a_flat.size
        start = self._charge(op, n)

        single = not op.is_double
        if single:
            a_flat = a_flat.astype(np.float32)
            b_flat = b_flat.astype(np.float32)
        with np.errstate(all="ignore"):
            result = _REF_BINARY_FNS[op.kind](a_flat, b_flat)

        if self.record_trace:
            if single:
                self._record(op, ieee754.floats_to_bits32(a_flat).astype(np.uint64),
                             ieee754.floats_to_bits32(b_flat).astype(np.uint64))
            else:
                self._record(op, a_flat.view(np.uint64),
                             b_flat.view(np.uint64))

        if self.corruption.get(op):
            if single:
                bits = result.view(np.uint32).astype(np.uint64)
                if self._apply_corruption(op, start, bits):
                    result = bits.astype(np.uint32).view(np.float32)
                    self._armed = True
            else:
                bits = result.view(np.uint64)
                if self._apply_corruption(op, start, bits):
                    self._armed = True
                result = bits.view(np.float64)

        result = result.astype(np.float64)
        self._trap_check(result)
        out = result.reshape(a_arr.shape) if not scalar else result[0]
        return out

    def _conv(self, op: FpOp, values):
        shaped = np.asarray(values)
        scalar = shaped.ndim == 0
        arr = np.atleast_1d(shaped).ravel()
        n = arr.size
        start = self._charge(op, n)
        if op.kind == "i2f":
            src = arr.astype(np.int64)
            if self.record_trace:
                self._record(op, src.view(np.uint64), None)
            result = src.astype(np.float64)
            bits = result.view(np.uint64)
            if self._apply_corruption(op, start, bits):
                self._armed = True
            result = bits.view(np.float64)
            self._trap_check(result)
            return result[0] if scalar else result.reshape(shaped.shape)
        # f2i: round toward zero, saturating (matches the FPU semantics).
        src = arr.astype(np.float64)
        if self.record_trace:
            self._record(op, src.view(np.uint64), None)
        with np.errstate(all="ignore"):
            clipped = np.where(np.isnan(src), 0.0,
                               np.clip(src, -2.0**62, 2.0**62))
            result = np.trunc(clipped).astype(np.int64)
        bits = result.view(np.uint64)
        if self._apply_corruption(op, start, bits):
            self._armed = True
        result = bits.view(np.int64)
        return int(result[0]) if scalar else result.reshape(shaped.shape)

    # -- checkpoint position ----------------------------------------------------------
    def checkpoint_position(self) -> Tuple[Tuple[int, ...], int]:
        """The RNG-independent stream position: per-op counts (dense, in
        FpOp order) + total.

        This pair fully determines where corruption indices land and when
        the op budget expires, so restoring it (plus the workload state)
        resumes an execution bit-identically.
        """
        return (tuple(self.counters[op] for op in FpOp),
                self.ops_executed)

    def restore_position(self, counts: Tuple[int, ...],
                         ops_executed: int) -> None:
        """Fast-forward this context to a recorded stream position."""
        self.counters = dict(zip(FpOp, counts))
        self.ops_executed = int(ops_executed)

    # -- profile extraction ---------------------------------------------------------
    def profile(self, name: str, ops_per_fp: float) -> WorkloadProfile:
        """Summarise the run into a :class:`WorkloadProfile` (golden runs)."""
        trace: Dict[FpOp, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        for op, chunks in self._trace_a.items():
            a_bits = np.concatenate(chunks) if chunks else np.zeros(0, np.uint64)
            b_chunks = self._trace_b.get(op)
            b_bits = np.concatenate(b_chunks) if b_chunks else None
            trace[op] = (a_bits, b_bits)
        counts = {op: n for op, n in self.counters.items() if n > 0}
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


# -- comparison helpers -------------------------------------------------------------

def _assert_same(got, want) -> None:
    """Same Python type, dtype, shape and bits (NaN payloads included)."""
    assert type(got) is type(want), (type(got), type(want))
    if isinstance(want, (np.ndarray, np.generic)):
        assert got.dtype == want.dtype
        assert np.shape(got) == np.shape(want)
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    else:
        assert got == want


def _state(ctx) -> tuple:
    return (list(op_counts(ctx).items()), ctx.ops_executed,
            list(ctx.op_sequence),
            ctx.corrupted_events, ctx._armed, ctx.checkpoint_position())


def _assert_same_profile(got: WorkloadProfile,
                         want: WorkloadProfile) -> None:
    assert list(got.counts_by_op.items()) == list(want.counts_by_op.items())
    assert got.total_instructions == want.total_instructions
    assert list(got.trace_by_op) == list(want.trace_by_op)
    for op, (a, b) in want.trace_by_op.items():
        got_a, got_b = got.trace_by_op[op]
        _assert_same(got_a, a)
        if b is None:
            assert got_b is None
        else:
            _assert_same(got_b, b)


def _call(ctx, method: str, args: tuple):
    """``(result, None)`` or ``(None, exception type)``."""
    try:
        return getattr(ctx, method)(*args), None
    except Exception as exc:  # noqa: BLE001 - the type is the observable
        return None, type(exc)


def _assert_same_run(ctxs, program) -> None:
    """Run ``program`` on both contexts, comparing after every step.

    Steps past an exception keep running: the counters a budget trip
    leaves behind must match too.
    """
    new, ref = ctxs
    saved = None
    with np.errstate(all="ignore"):
        for method, args in program:
            if method == "checkpoint":
                saved = ref.checkpoint_position()
                assert new.checkpoint_position() == saved
                continue
            if method == "restore":
                if saved is not None:
                    new.restore_position(*saved)
                    ref.restore_position(*saved)
                continue
            got, got_exc = _call(new, method, args)
            want, want_exc = _call(ref, method, args)
            assert got_exc is want_exc, (method, got_exc, want_exc)
            if want_exc is None:
                _assert_same(got, want)
            assert _state(new) == _state(ref), method
    if ref.record_trace:
        _assert_same_profile(new.profile("p", 1.5), ref.profile("p", 1.5))
    assert new.fp_op_sequence(limit=50) == ref.fp_op_sequence(limit=50)


# -- strategies ----------------------------------------------------------------------

BINARY = {
    "add": FpOp.ADD_D, "sub": FpOp.SUB_D, "mul": FpOp.MUL_D,
    "div": FpOp.DIV_D, "add_s": FpOp.ADD_S, "sub_s": FpOp.SUB_S,
    "mul_s": FpOp.MUL_S, "div_s": FpOp.DIV_S,
}
CORRUPTIBLE = list(BINARY.values()) + [FpOp.I2F_D, FpOp.F2I_D]

floats = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1.0, 3.0, math.inf, -math.inf, math.nan,
                     1e300, -1e300, 5e-324, 1e-310, 2.0**62, 2.0**70]),
)
ints = st.integers(min_value=-(2**40), max_value=2**40)
SHAPES = [(0,), (1,), (2,), (5,), (8,), (3, 4), (2, 1, 3), (0, 2)]


@st.composite
def float_array(draw, shape):
    size = int(np.prod(shape, dtype=np.int64))
    values = draw(st.lists(floats, min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(shape)


@st.composite
def strided_array(draw, shape):
    """A non-contiguous float64 view of ``shape``."""
    kind = draw(st.sampled_from(["step", "transpose", "column"]))
    if kind == "step" or len(shape) == 1:
        base = draw(float_array((2 * int(np.prod(shape)),)))
        return base[::2].reshape(shape) if len(shape) > 1 else base[::2]
    if kind == "transpose":
        return draw(float_array(tuple(reversed(shape)))).T
    base = draw(float_array(shape[:-1] + (2 * shape[-1],)))
    return base[..., ::2]


@st.composite
def scalar(draw):
    kind = draw(st.sampled_from(
        ["float", "int", "np64", "zero_d", "zero_d_int"]))
    if kind == "int":
        return draw(ints)
    if kind == "zero_d_int":
        return np.array(draw(ints))
    value = draw(floats)
    if kind == "np64":
        return np.float64(value)
    if kind == "zero_d":
        return np.array(value)
    return value


@st.composite
def operand(draw, shape):
    kind = draw(st.sampled_from(
        ["f64", "f64", "f64", "strided", "int", "float32"]))
    if kind == "strided":
        return draw(strided_array(shape))
    if kind == "int":
        size = int(np.prod(shape))
        values = draw(st.lists(ints, min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).reshape(shape)
    arr = draw(float_array(shape))
    if kind == "float32":
        with np.errstate(over="ignore"):
            return arr.astype(np.float32)
    return arr


@st.composite
def operand_pair(draw):
    kind = draw(st.sampled_from(
        ["same", "same", "scalars", "scalar_array", "broadcast"]))
    if kind == "scalars":
        return draw(scalar()), draw(scalar())
    shape = draw(st.sampled_from(SHAPES))
    if kind == "same":
        return draw(operand(shape)), draw(operand(shape))
    if kind == "scalar_array":
        pair = [draw(scalar()), draw(operand(shape))]
        return tuple(pair if draw(st.booleans()) else pair[::-1])
    # (r, 1) x (c,) -> (r, c), or (r, c) x (1, c).
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(float_array((r, 1))), draw(float_array((c,)))


@st.composite
def reduce_operand(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    kind = draw(st.sampled_from(["list", "array", "strided", "matrix"]))
    if kind == "list":
        return draw(st.lists(floats, min_size=n, max_size=n))
    if kind == "strided":
        return draw(float_array((2 * n,)))[::2]
    if kind == "matrix":
        return draw(float_array((max(n // 4, 1), 4)))
    return draw(float_array((n,)))


@st.composite
def step(draw):
    kind = draw(st.sampled_from(
        ["binary"] * 6 + ["sum", "sum", "dot", "i2f", "f2i",
                          "checkpoint", "restore"]))
    if kind == "binary":
        return draw(st.sampled_from(sorted(BINARY))), draw(operand_pair())
    if kind == "sum":
        return "sum", (draw(reduce_operand()),)
    if kind == "dot":
        n = draw(st.integers(min_value=1, max_value=20))
        return "dot", (draw(float_array((n,))), draw(float_array((n,))))
    if kind == "i2f":
        values = draw(st.one_of(
            ints,
            st.lists(ints, min_size=1, max_size=6).map(np.array),
            st.lists(st.floats(-1e9, 1e9), min_size=1,
                     max_size=6).map(np.array)))
        return "i2f", (values,)
    if kind == "f2i":
        values = draw(st.one_of(
            floats, st.lists(floats, min_size=1, max_size=6).map(np.array),
            float_array((2, 3))))
        return "f2i", (values,)
    return kind, ()


masks = st.one_of(
    st.sampled_from([0x7FF << 52, 0x3FF << 52, 1 << 63, 1 << 52, 1,
                     0x7F800000, 1 << 31, 1 << 22, 1 << 40]),
    st.integers(min_value=1, max_value=(1 << 64) - 1),
)


@st.composite
def context_kwargs(draw):
    corruption = draw(st.dictionaries(
        st.sampled_from(CORRUPTIBLE),
        st.dictionaries(st.integers(min_value=0, max_value=90), masks,
                        min_size=1, max_size=4),
        max_size=4))
    return dict(
        corruption=corruption,
        record_trace=draw(st.booleans()),
        trace_cap=draw(st.integers(min_value=0, max_value=30)),
        op_budget=draw(st.one_of(st.none(),
                                 st.integers(min_value=0, max_value=300))),
        trap_nonfinite=draw(st.booleans()),
        sequence_cap=draw(st.sampled_from([1, 3, 40_000])),
    )


def _pair(**kwargs):
    return FPContext(**kwargs), ReferenceFPContext(**kwargs)


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


# -- the oracle ------------------------------------------------------------------------

class TestRandomPrograms:
    @SETTINGS
    @given(kwargs=context_kwargs(),
           program=st.lists(step(), min_size=1, max_size=12))
    def test_programs_match_reference(self, kwargs, program):
        _assert_same_run(_pair(**kwargs), program)

    @SETTINGS
    @given(method=st.sampled_from(sorted(BINARY)), pair=operand_pair())
    def test_single_binary_matches_reference(self, method, pair):
        _assert_same_run(_pair(record_trace=True, trace_cap=7),
                         [(method, pair)])


class TestFixedPrograms:
    """Every victim position and budget trip point of one tree, and
    victims in single-precision and conversion results."""

    values = np.linspace(-3.0, 5.0, 37)

    def test_victim_at_every_tree_position(self):
        # 2 adds + 36 tree adds + 2 adds: victims before, inside every
        # level of, and after the reduction, across call boundaries.
        program = [("add", (np.ones(2), np.ones(2))),
                   ("sum", (self.values,)),
                   ("add", (np.ones(2), np.ones(2)))]
        for index in range(41):
            for mask in (1 << 51, 0x7FF << 52):
                for trap in (False, True):
                    _assert_same_run(
                        _pair(corruption={FpOp.ADD_D: {index: mask}},
                              trap_nonfinite=trap),
                        program)

    def test_budget_trips_at_every_tree_level(self):
        for budget in range(0, 40):
            _assert_same_run(_pair(op_budget=budget, record_trace=True,
                                   trace_cap=9),
                             [("sum", (self.values,)),
                              ("sum", (self.values[:3],))])

    def test_single_precision_victims(self):
        a = np.linspace(0.5, 2.5, 6)
        for op, method in ((FpOp.MUL_S, "mul_s"), (FpOp.DIV_S, "div_s")):
            for mask in (1 << 22, 0x7F800000, 1 << 40, (1 << 64) - 1):
                _assert_same_run(
                    _pair(corruption={op: {2: mask, 7: mask}},
                          trap_nonfinite=True, record_trace=True),
                    [(method, (a, a)), (method, (a, 3.0))])

    def test_conversion_victims(self):
        ints_in = np.array([0, 1, -7])
        for op in (FpOp.I2F_D, FpOp.F2I_D):
            for mask in (0x7FF << 52, 1 << 63, 1 << 10):
                for trap in (False, True):
                    _assert_same_run(
                        _pair(corruption={op: {0: mask, 4: mask}},
                              trap_nonfinite=trap, record_trace=True),
                        [("i2f", (ints_in,)), ("i2f", (3,)),
                         ("f2i", (np.array([2.5, np.nan]),)),
                         ("f2i", (np.inf,)), ("f2i", (ints_in,))])


    # -- the clean-call fast path's edges ------------------------------------

    def test_trap_at_every_level_of_a_clean_tree(self):
        # A MUL_D victim arms the traps; the ADD_D tree is victim-free,
        # so it runs on the fast path until a level turns non-finite:
        # an inf or NaN at every input position, and finite inputs whose
        # partial sums overflow at level 0, 1, 2, ...
        bad_inputs = []
        for position in range(self.values.size):
            for bad in (np.inf, -np.inf, np.nan):
                values = self.values.copy()
                values[position] = bad
                bad_inputs.append(values)
        for level in range(6):
            bad_inputs.append(np.full(self.values.size, 1e308 / 2**level))
        for values in bad_inputs:
            for corruption in ({FpOp.MUL_D: {1: 1 << 51}}, {}):
                _assert_same_run(
                    _pair(corruption=corruption, trap_nonfinite=True),
                    [("mul", (np.ones(2), np.ones(2))),
                     ("sum", (values,)),
                     ("dot", (values[:9], values[9:18])),
                     ("add", (np.ones(2), np.ones(2)))])

    def test_budget_at_and_around_every_call_end(self):
        # 5 adds, a 36-add tree, 12 muls, a 1-op scalar div: budgets one
        # below, at and one above each call's end, no trace recorded.
        program = [("add", (np.ones(5), np.ones(5))),
                   ("sum", (self.values,)),
                   ("mul", (np.ones((3, 4)), 2.0)),
                   ("div", (np.float64(1.0), 3.0))]
        for end in (5, 41, 53, 54):
            for budget in (end - 1, end, end + 1):
                for armed in ({}, {FpOp.SUB_D: {0: 1}}):
                    _assert_same_run(
                        _pair(op_budget=budget, corruption=armed,
                              trap_nonfinite=True),
                        [("sub", (1.0, 1.0))] + program)

    def test_victim_at_every_index_around_call_ranges(self):
        # Calls and a tree of one op back to back: a victim at each
        # call's first and last index and just outside it.
        program = [("add", (np.ones(4), np.ones(4))),
                   ("add", (np.arange(6.0), 0.5)),
                   ("sum", (self.values[:9],)),
                   ("add", (np.ones((2, 3)), np.ones((2, 3))))]
        for index in range(4 + 6 + 8 + 6 + 2):
            for trap in (False, True):
                for extra in ({}, {index + 7: 1 << 52}):
                    _assert_same_run(
                        _pair(corruption={FpOp.ADD_D: {index: 0x7FF << 52,
                                                       **extra}},
                              trap_nonfinite=trap),
                        program)

    def test_fast_operand_kinds_with_victims_in_and_out_of_range(self):
        # np.float64 x np.float64, (r, 1) x (c,) and transposed operands:
        # MUL_D index ranges [0, 1), [1, 13), [13, 25).
        column = np.linspace(-1.0, 2.0, 3).reshape(3, 1)
        row = np.linspace(0.5, 4.0, 4)
        base = np.linspace(-2.0, 3.0, 12).reshape(4, 3)
        program = [("mul", (np.float64(1.5), np.float64(-2.0))),
                   ("mul", (column, row)),
                   ("mul", (base.T, (base * 2.0).T)),
                   ("mul", (row, column))]
        for index in (0, 1, 5, 12, 13, 20, 24, 25, 36, 37, 40):
            for mask in (1 << 63, 0x7FF << 52):
                for trap in (False, True):
                    _assert_same_run(
                        _pair(corruption={FpOp.MUL_D: {index: mask}},
                              trap_nonfinite=trap),
                        program)


class TestWorkloads:
    """Every workload at scale tiny: golden and corrupted runs."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_streams_match_reference(self, name):
        workload = make_workload(name, scale="tiny", seed=11)
        golden_kwargs = dict(record_trace=True, trace_cap=500,
                             trap_nonfinite=workload.trap_nonfinite)
        new, ref = _pair(**golden_kwargs)
        with np.errstate(all="ignore"):
            _assert_same(workload.run(new), workload.run(ref))
        assert _state(new) == _state(ref)
        _assert_same_profile(new.profile(name, 2.0), ref.profile(name, 2.0))
        counts = {op: n for op, n in ref.counters.items() if n}
        budget = 2 * ref.ops_executed

        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(4):
            ops = rng.choice(len(counts), size=min(2, len(counts)),
                             replace=False)
            corruption: Dict[FpOp, Dict[int, int]] = {}
            for i in ops:
                op = list(counts)[i]
                victims = rng.integers(0, counts[op], size=2)
                bits = rng.integers(0, 64, size=2)
                corruption[op] = {int(v): 1 << int(b)
                                  for v, b in zip(victims, bits)}
            new, ref = _pair(corruption=corruption, op_budget=budget,
                             trap_nonfinite=workload.trap_nonfinite)
            with np.errstate(all="ignore"):
                got, got_exc = _call(workload, "run", (new,))
                want, want_exc = _call(workload, "run", (ref,))
            assert got_exc is want_exc
            if want_exc is None:
                _assert_same(got, want)
            assert _state(new) == _state(ref)


def test_fpop_hash_is_not_overridden():
    # Set iteration order of FpOp members can feed RNG call order.
    import enum
    assert FpOp.__hash__ is enum.Enum.__hash__
