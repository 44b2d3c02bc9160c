"""Dynamic-trace synthesis around a workload's FP instruction stream.

The workloads (``repro.workloads``) execute their real algorithms and
stream real FP operations; the surrounding integer/memory/branch
instructions — address arithmetic, loop control, loads/stores — determine
pipeline behaviour but not FP values.  This module synthesises that
surrounding stream from a per-benchmark :class:`TraceMix` (measured mixes
of the original programs' flavours: stencil codes are load/store heavy,
cg is branchy on sparse indices, is is integer-dominated), producing the
deterministic :class:`TraceWindow` arrays the OoO core model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fpu.formats import FpOp
from repro.uarch.isa import CLASS_LATENCY, NUM_REGS, InstrClass
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class TraceMix:
    """Instruction-mix shape of a benchmark.

    ``ops_per_fp`` — non-FP dynamic instructions per FP instruction
    (drives the Table II total-instruction scale); the four fractions
    split those among classes (they need not sum to 1; the remainder is
    INT_ALU).  ``branch_mispredict`` is the misprediction rate of the
    synthetic branch stream.
    """

    ops_per_fp: float
    load_fraction: float = 0.25
    store_fraction: float = 0.10
    branch_fraction: float = 0.12
    branch_mispredict: float = 0.05

    def __post_init__(self):
        total = self.load_fraction + self.store_fraction + self.branch_fraction
        if not 0.0 <= total <= 1.0:
            raise ValueError("class fractions exceed 1.0")
        if self.ops_per_fp < 0:
            raise ValueError("ops_per_fp must be non-negative")


#: Measured-flavour mixes per benchmark (see DESIGN.md for the rationale).
MIXES: Dict[str, TraceMix] = {
    "sobel": TraceMix(ops_per_fp=6.0, load_fraction=0.35, store_fraction=0.12,
                      branch_fraction=0.10, branch_mispredict=0.02),
    "cg": TraceMix(ops_per_fp=5.0, load_fraction=0.38, store_fraction=0.08,
                   branch_fraction=0.14, branch_mispredict=0.06),
    "kmeans": TraceMix(ops_per_fp=4.0, load_fraction=0.30, store_fraction=0.08,
                       branch_fraction=0.16, branch_mispredict=0.08),
    "srad_v1": TraceMix(ops_per_fp=5.0, load_fraction=0.34, store_fraction=0.12,
                        branch_fraction=0.08, branch_mispredict=0.02),
    "hotspot": TraceMix(ops_per_fp=4.5, load_fraction=0.36, store_fraction=0.12,
                        branch_fraction=0.08, branch_mispredict=0.02),
    "is": TraceMix(ops_per_fp=24.0, load_fraction=0.30, store_fraction=0.18,
                   branch_fraction=0.14, branch_mispredict=0.10),
    "mg": TraceMix(ops_per_fp=5.5, load_fraction=0.36, store_fraction=0.12,
                   branch_fraction=0.07, branch_mispredict=0.03),
    "default": TraceMix(ops_per_fp=5.0),
}


@dataclass
class TraceWindow:
    """Column-oriented dynamic instruction window.

    ``cls`` holds :class:`InstrClass` codes; ``latency`` per-instruction
    execution latency; ``dest``/``src1``/``src2`` register ids (negative =
    none); ``fp_index`` the global FP-stream index for FP instructions
    (-1 otherwise); ``mispredicted`` flags branches the synthetic
    predictor misses.
    """

    cls: np.ndarray
    latency: np.ndarray
    dest: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    fp_index: np.ndarray
    mispredicted: np.ndarray

    def __len__(self) -> int:
        return int(self.cls.shape[0])

    @property
    def fp_count(self) -> int:
        return int(np.count_nonzero(self.cls == int(InstrClass.FP)))


#: Raw words per ``random_raw`` call.  Synthesis decodes one block at a
#: time (plus the few words a block leaves unread), which bounds its
#: transient memory whatever the window size.
_BLOCK_WORDS = 1 << 13

_U32 = 0xFFFFFFFF
#: ``Generator.random()`` is ``(word >> 11) * 2**-53``.
_DOUBLE_UNIT = 2.0 ** -53

# A filler's register draw is ``integers(0, NUM_REGS)``: Lemire's method
# redraws only below (2**32 - NUM_REGS) % NUM_REGS, which is 0 for a
# power of two, so each of these draws is exactly one uint32.
assert (1 << 32) % NUM_REGS == 0


class PCG64Draws:
    """The draws a numpy ``Generator`` makes, decoded from raw words.

    ``Generator(bit_generator)`` consumes the 64-bit words of its bit
    generator as follows (numpy's ``distributions.c`` and ``pcg64.h``):

    - a double (``random()``) takes the next word ``w`` and returns
      ``(w >> 11) * 2**-53``;
    - a uint32 draw returns the buffered high half of an earlier word if
      there is one; otherwise it takes the next word, returns its low 32
      bits and buffers the high 32.  Double draws in between leave the
      buffer alone;
    - ``integers(0, r)`` is Lemire's method over uint32 draws ``u``:
      ``m = u * r``, result ``m >> 32``, redrawn while
      ``m & 0xFFFFFFFF < (2**32 - r) % r``.  ``r = 1`` draws nothing.

    This class walks that consumption over words pulled from
    ``bit_generator.random_raw`` in blocks of ``_BLOCK_WORDS``, so the
    caller can take draws by position and decode them in bulk.  A
    double's position is its word's index in the words held now; a
    uint32's is ``2 * word`` for a low half and ``2 * word + 1`` for a
    high half.  Positions stay valid until :meth:`refill`, which drops
    the words already read.
    """

    __slots__ = ("_bit_generator", "_words", "_word_at", "size", "cursor",
                 "held")

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self._words = np.empty(0, dtype=np.uint64)
        self._word_at = memoryview(self._words)
        #: Number of words held (read or not).
        self.size = 0
        #: Index of the next unread word.
        self.cursor = 0
        #: Position of the buffered high half, or -1.
        self.held = -1

    def doubles(self, at=slice(None)) -> np.ndarray:
        """The doubles at positions ``at`` (default: every word held)."""
        return (self._words[at] >> 11) * _DOUBLE_UNIT

    def u32(self, at: np.ndarray) -> np.ndarray:
        """The uint32 draws at positions ``at``."""
        shift = (at & 1).astype(np.uint64) << 5
        return (self._words[at >> 1] >> shift) & _U32

    def refill(self, need: int) -> None:
        """Drop the words already read and pull blocks until ``need``
        words lie past the cursor.  Every earlier position is invalid
        afterwards; the buffered half is kept."""
        drop = self.cursor
        if self.held >= 0:
            drop = min(drop, self.held >> 1)
            self.held -= 2 * drop
        self.cursor -= drop
        self._pull(self._words[drop:], need)

    def _pull(self, kept: np.ndarray, need: int = 0) -> None:
        blocks = [kept]
        size = kept.size
        while True:
            blocks.append(self._bit_generator.random_raw(_BLOCK_WORDS))
            size += _BLOCK_WORDS
            if size - self.cursor >= need:
                break
        self._words = np.concatenate(blocks)
        self._word_at = memoryview(self._words)
        self.size = size

    def take_doubles(self, n: int) -> int:
        """Consume ``random(size=n)``; return its first double's
        position (the others follow it)."""
        at = self.cursor
        self.cursor = at + n
        if self.cursor > self.size:
            self._pull(self._words)
        return at

    def take_u32(self, n: int) -> Tuple[int, int]:
        """Consume ``n >= 1`` uint32 draws; return ``(held, start)``.

        The draws are the half at ``held`` (when ``held >= 0``, the
        buffered half) followed by consecutive halves from ``start``."""
        held = self.held
        fresh = n - 1 if held >= 0 else n
        start = 2 * self.cursor
        self.held = start + fresh if fresh & 1 else -1
        self.cursor += (fresh + 1) >> 1
        if self.cursor > self.size:
            self._pull(self._words)
        return held, start

    def random(self) -> float:
        """``Generator.random()``."""
        at = self.cursor
        if at == self.size:
            self._pull(self._words)
        self.cursor = at + 1
        return (self._word_at[at] >> 11) * _DOUBLE_UNIT

    def integers(self, r: int) -> int:
        """``Generator.integers(0, r)`` for ``1 <= r <= 2**32``."""
        if r == 1:
            return 0
        threshold = ((1 << 32) - r) % r
        while True:
            if self.held >= 0:
                m = (self._word_at[self.held >> 1] >> 32) * r
                self.held = -1
            else:
                at = self.cursor
                if at == self.size:
                    self._pull(self._words)
                m = (self._word_at[at] & _U32) * r
                self.held = 2 * at + 1
                self.cursor = at + 1
            if m & _U32 >= threshold:
                return m >> 32


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``range(s, s + c)`` for each ``(s, c)`` pair, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


def _running_count(flags: np.ndarray) -> memoryview:
    """``count[j]`` = number of set flags before index ``j``."""
    count = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=count[1:])
    return memoryview(count)


def _draw_fillers(workload: str, mix: TraceMix, seed: int,
                  n_fillers: List[int]):
    """Walk the trace stream for FP instructions with ``n_fillers``
    fillers each.

    Returns the fillers' class draws, their (dest, src1, src2) register
    draws as an ``(n, 3)`` uint8 array (ids < NUM_REGS <= 256), one
    mispredict flag per synthetic branch, and each FP instruction's two
    source registers.  The filler arrays are allocated once at their
    final size: growing them block by block fragments the heap and
    raises the process's peak RSS.
    """
    tape = PCG64Draws(
        RngStream(seed, f"trace/{workload}").generator.bit_generator)
    store_below = mix.load_fraction + mix.store_fraction
    branch_below = store_below + mix.branch_fraction
    # A draw is a branch when it is neither a load nor a store.
    branch_from = max(mix.load_fraction, store_below)
    mispredict = mix.branch_mispredict

    total = sum(n_fillers)
    draws = np.empty(total, dtype=np.float64)
    regs = np.empty((total, 3), dtype=np.uint8)
    mispredicted = np.empty(total, dtype=bool)
    n_drawn = n_branches = 0
    fp_src1: List[int] = []
    fp_src2: List[int] = []

    # Per FP instruction with fillers, positions in the tape's current
    # block: (first class draw, fillers, buffered register half, first
    # fresh register half, first mispredict draw, branches).
    rows: List[tuple] = []

    def gather() -> None:
        nonlocal n_drawn, n_branches
        if not rows:
            return
        at, n, held, start, mp_at, n_branch = np.array(rows).T
        rows.clear()
        end = n_drawn + int(n.sum())
        draws[n_drawn:end] = tape.doubles(_ranges(at, n))
        # Each row's 3n register draws: its buffered half, if any, then
        # consecutive halves.
        has_held = held >= 0
        half = _ranges(start - has_held, 3 * n)
        half[(np.cumsum(3 * n) - 3 * n)[has_held]] = held[has_held]
        regs[n_drawn:end] = ((tape.u32(half) * NUM_REGS) >> 32).reshape(-1, 3)
        n_drawn = end
        end = n_branches + int(n_branch.sum())
        mispredicted[n_branches:end] = (
            tape.doubles(_ranges(mp_at, n_branch)) < mispredict)
        n_branches = end

    take_doubles, take_u32 = tape.take_doubles, tape.take_u32
    random, integers = tape.random, tape.integers
    decoded = 0
    for i, n_filler in enumerate(n_fillers):
        k = n_filler or 1
        # Hold every word this instruction can take (k doubles, 3k
        # register halves, k mispredict draws, four words for the two
        # sources) in the block the branch counts cover.  A Lemire
        # redraw past it grows the block, which keeps positions valid.
        if tape.cursor + 4 * k + 4 > decoded:
            gather()
            tape.refill(4 * k + 4)
            # branches[j]: synthetic branches among the block's first j
            # words.  The decoded doubles are freed at once: keeping them
            # until the next block raised paper_job's peak RSS.
            doubles = tape.doubles()
            branches = _running_count(
                (branch_from <= doubles) & (doubles < branch_below))
            del doubles
            decoded = tape.size
        at = take_doubles(k)
        held, start = take_u32(3 * k)
        if n_filler:
            n_branch = branches[at + n_filler] - branches[at]
            rows.append((at, n_filler, held, start, take_doubles(n_branch),
                         n_branch))
        # Realistic producer-consumer register allocation: destinations
        # rotate through a working set (2 + i % (NUM_REGS - 2)) and
        # sources usually read recent producers (compilers keep FP
        # lifetimes short but *used*); a small fraction of results is
        # genuinely dead (speculative hoisting, unused lanes).  The
        # recent producers are the last min(i, 6) FP destinations,
        # oldest first.
        recent = i if i < 6 else 6
        if random() < 0.9 and recent:
            fp_src1.append(2 + (i - recent + integers(recent))
                           % (NUM_REGS - 2))
        else:
            fp_src1.append(integers(NUM_REGS))
        if random() < 0.6 and recent:
            fp_src2.append(2 + (i - recent + integers(recent))
                           % (NUM_REGS - 2))
        else:
            fp_src2.append(integers(NUM_REGS))
    gather()
    return draws, regs, mispredicted[:n_branches], fp_src1, fp_src2


def synthesize_trace(workload: str,
                     fp_ops: List[FpOp],
                     mix: Optional[TraceMix] = None,
                     seed: int = 2021,
                     max_window: int = 100_000) -> TraceWindow:
    """Build a trace window interleaving ``fp_ops`` with synthetic filler.

    ``fp_ops`` is the (possibly truncated) sequence of FP instruction
    types the workload executes.  The window is SimPoint-style (the core
    model extrapolates CPI beyond it): it holds the first
    ``max(1, int(max_window / (1 + ops_per_fp)))`` FP instructions and
    their fillers, so ``len(window) <= max(max_window,
    1 + int(ops_per_fp))``.  It exceeds ``max_window`` only when one FP
    instruction and its fillers already do.

    The window is a pure function of the stream its seeded generator
    would produce under this call order, per FP instruction with ``k``
    fillers: ``random(size=max(1, k))``, ``integers(0, NUM_REGS,
    size=3 * max(1, k))``, one ``random()`` per synthetic branch, then
    for each FP source ``random()`` and one scalar ``integers``.  That
    order is a compatibility contract: changing it changes every golden
    schedule built from it.  The stream is read as raw words
    (:class:`PCG64Draws`): :func:`_draw_fillers` walks the cursor in
    Python, reading only the draws that steer consumption (branch
    counts, source decisions, the scalar ``integers``), and gathers
    filler classes, registers and mispredict flags with numpy, one block
    at a time.  The columns are assembled from those draws here.
    """
    mix = mix or MIXES.get(workload, MIXES["default"])
    n_fp_window = max(1, min(
        len(fp_ops),
        int(max_window / (1.0 + mix.ops_per_fp)),
    )) if fp_ops else 0
    n_fillers: List[int] = []
    carry = 0.0
    for _ in range(n_fp_window):
        carry += mix.ops_per_fp
        n_filler = int(carry)
        carry -= n_filler
        n_fillers.append(n_filler)
    draws, regs, branch_mispredicted, fp_src1, fp_src2 = _draw_fillers(
        workload, mix, seed, n_fillers)

    load_below = mix.load_fraction
    store_below = mix.load_fraction + mix.store_fraction
    branch_below = store_below + mix.branch_fraction

    regs = regs.astype(np.int16)  # room for the -1 "no register"
    kinds = [draws < load_below, draws < store_below, draws < branch_below]
    # Column-width dtypes and an early free of the draws keep the
    # assembly's transient memory small.
    classes = [InstrClass.LOAD, InstrClass.STORE, InstrClass.BRANCH]
    filler_cls = np.select(kinds, [np.int8(c) for c in classes],
                           np.int8(InstrClass.INT_ALU))
    filler_latency = np.select(
        kinds, [np.int16(CLASS_LATENCY[c]) for c in classes],
        np.int16(CLASS_LATENCY[InstrClass.INT_ALU]))
    del kinds, draws
    is_load = filler_cls == int(InstrClass.LOAD)
    is_branch = filler_cls == int(InstrClass.BRANCH)
    writes = is_load | (filler_cls == int(InstrClass.INT_ALU))
    filler_mispredicted = np.zeros(filler_cls.size, dtype=bool)
    filler_mispredicted[is_branch] = branch_mispredicted

    # FP instruction i follows its own fillers and all earlier ones.
    fp_at = np.cumsum(n_fillers, dtype=np.int64) + np.arange(n_fp_window)
    is_fp = np.zeros(filler_cls.size + n_fp_window, dtype=bool)
    is_fp[fp_at] = True
    is_filler = ~is_fp

    def column(filler, fp, dtype) -> np.ndarray:
        out = np.empty(is_fp.size, dtype=dtype)
        out[is_filler] = filler
        out[is_fp] = fp
        return out

    return TraceWindow(
        cls=column(filler_cls, int(InstrClass.FP), np.int8),
        latency=column(filler_latency,
                       [op.latency_cycles for op in fp_ops[:n_fp_window]],
                       np.int16),
        dest=column(np.where(writes, regs[:, 0], -1),
                    2 + np.arange(n_fp_window) % (NUM_REGS - 2), np.int16),
        src1=column(regs[:, 1], fp_src1, np.int16),
        src2=column(np.where(is_load, -1, regs[:, 2]), fp_src2, np.int16),
        fp_index=column(-1, np.arange(n_fp_window), np.int64),
        mispredicted=column(filler_mispredicted, False, bool),
    )
