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

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

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


def synthesize_trace(workload: str,
                     fp_ops: List[FpOp],
                     mix: Optional[TraceMix] = None,
                     seed: int = 2021,
                     max_window: int = 100_000) -> TraceWindow:
    """Build a trace window interleaving ``fp_ops`` with synthetic filler.

    ``fp_ops`` is the (possibly truncated) sequence of FP instruction
    types the workload executes; at most ``max_window`` total instructions
    are materialised (SimPoint-style window — the core model extrapolates
    CPI beyond it).

    The window is a pure function of the generator's draws, so the order
    and sizes of the ``random``/``integers`` calls below are a
    compatibility contract: changing either changes every golden
    schedule built from it.  The loop makes only those calls; the
    columns are assembled from the draws afterwards.
    """
    mix = mix or MIXES.get(workload, MIXES["default"])
    generator = RngStream(seed, f"trace/{workload}").generator
    random = generator.random
    integers = generator.integers

    filler_per_fp = mix.ops_per_fp
    n_fp_window = max(1, min(
        len(fp_ops),
        int(max_window / (1.0 + filler_per_fp)),
    )) if fp_ops else 0

    load_below = mix.load_fraction
    store_below = mix.load_fraction + mix.store_fraction
    branch_below = store_below + mix.branch_fraction
    # A draw is a branch when it is neither a load nor a store.
    branch_from = max(load_below, store_below)
    mispredict = mix.branch_mispredict

    # Filler instructions preceding each FP instruction: their class
    # draws and (dest, src1, src2) register draws, in program order,
    # packed as doubles and bytes (register ids < NUM_REGS <= 256).
    n_fillers: List[int] = []
    filler_draws = array("d")
    filler_regs = bytearray()
    branch_mispredicted: List[bool] = []
    fp_dest: List[int] = []
    fp_src1: List[int] = []
    fp_src2: List[int] = []

    carry = 0.0
    recent_fp: Deque[int] = deque(maxlen=6)
    for i in range(n_fp_window):
        carry += filler_per_fp
        n_filler = int(carry)
        carry -= n_filler
        draws = random(size=max(1, n_filler)).tolist()
        regs = integers(0, NUM_REGS, size=3 * max(1, n_filler)).tolist()
        n_fillers.append(n_filler)
        if n_filler:
            filler_draws.extend(draws)
            filler_regs.extend(regs)
            for r in draws:
                if branch_from <= r < branch_below:
                    branch_mispredicted.append(random() < mispredict)
        # Realistic producer-consumer register allocation: destinations
        # rotate through a working set and sources usually read recent
        # producers (compilers keep FP lifetimes short but *used*); a
        # small fraction of results is genuinely dead (speculative
        # hoisting, unused lanes).
        dest_reg = 2 + i % (NUM_REGS - 2)
        if random() < 0.9 and recent_fp:
            fp_src1.append(recent_fp[int(integers(0, len(recent_fp)))])
        else:
            fp_src1.append(int(integers(0, NUM_REGS)))
        if random() < 0.6 and recent_fp:
            fp_src2.append(recent_fp[int(integers(0, len(recent_fp)))])
        else:
            fp_src2.append(int(integers(0, NUM_REGS)))
        fp_dest.append(dest_reg)
        recent_fp.append(dest_reg)

    draws = np.frombuffer(filler_draws, dtype=np.float64)
    regs = np.frombuffer(filler_regs, dtype=np.uint8).reshape(-1, 3)
    regs = regs.astype(np.int16)  # room for the -1 "no register"
    kinds = [draws < load_below, draws < store_below, draws < branch_below]
    filler_cls = np.select(kinds, [int(InstrClass.LOAD),
                                   int(InstrClass.STORE),
                                   int(InstrClass.BRANCH)],
                           int(InstrClass.INT_ALU))
    filler_latency = np.select(kinds, [CLASS_LATENCY[InstrClass.LOAD],
                                       CLASS_LATENCY[InstrClass.STORE],
                                       CLASS_LATENCY[InstrClass.BRANCH]],
                               CLASS_LATENCY[InstrClass.INT_ALU])
    is_load = filler_cls == int(InstrClass.LOAD)
    is_branch = filler_cls == int(InstrClass.BRANCH)
    writes = is_load | (filler_cls == int(InstrClass.INT_ALU))
    filler_mispredicted = np.zeros(draws.size, dtype=bool)
    filler_mispredicted[is_branch] = branch_mispredicted

    # FP instruction i follows its own fillers and all earlier ones.
    fp_at = np.cumsum(n_fillers, dtype=np.int64) + np.arange(n_fp_window)
    is_fp = np.zeros(draws.size + n_fp_window, dtype=bool)
    is_fp[fp_at] = True

    def column(filler, fp, dtype) -> np.ndarray:
        out = np.empty(is_fp.size, dtype=dtype)
        out[~is_fp] = filler
        out[is_fp] = fp
        return out

    return TraceWindow(
        cls=column(filler_cls, int(InstrClass.FP), np.int8),
        latency=column(filler_latency,
                       [op.latency_cycles for op in fp_ops[:n_fp_window]],
                       np.int16),
        dest=column(np.where(writes, regs[:, 0], -1), fp_dest, np.int16),
        src1=column(regs[:, 1], fp_src1, np.int16),
        src2=column(np.where(is_load, -1, regs[:, 2]), fp_src2, np.int16),
        fp_index=column(-1, np.arange(n_fp_window), np.int64),
        mispredicted=column(filler_mispredicted, False, bool),
    )
