"""Cycle-level out-of-order core model and a small functional core.

:class:`OoOCore` is a timestamp-based OoO pipeline model (the standard
fast-microarchitecture-model construction): every dynamic instruction gets
fetch / issue / writeback / commit timestamps subject to fetch width, ROB
capacity, functional-unit structural hazards, register data dependencies
and branch-misprediction redirects.  It produces the
:class:`PipelineSchedule` the injector uses to place errors at cycles and
to resolve microarchitectural masking, and extrapolates whole-program
cycle counts from the simulated window (SimPoint-style).

:class:`FunctionalCore` executes small programs of the
:class:`repro.uarch.isa.Instruction` ISA with full semantics, routing FP
through the bit-accurate softfloat and applying injection bitmasks to
destination registers — the end-to-end demonstration vehicle of the
injection semantics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.fpu import softfloat
from repro.uarch.isa import Instruction, InstrClass, NUM_REGS
from repro.uarch.trace import TraceWindow


@dataclass(frozen=True)
class CoreParams:
    """Microarchitectural parameters (defaults: modest embedded OoO)."""

    fetch_width: int = 2
    rob_size: int = 64
    int_units: int = 2
    mem_units: int = 1
    fp_units: int = 1
    mispredict_penalty: int = 8
    fp_div_blocking: bool = True

    def __post_init__(self):
        if min(self.fetch_width, self.rob_size, self.int_units,
               self.mem_units, self.fp_units) < 1:
            raise ValueError("core parameters must be positive")


@dataclass
class PipelineSchedule:
    """Timing outcome of a trace window, plus whole-program extrapolation.

    ``fp_writeback[i]`` is the writeback cycle of the window's i-th FP
    instruction; ``wrong_path_fp_fraction`` the fraction of fetched FP
    instructions that were squashed on wrong paths; ``dead_fp_fraction``
    the fraction of committed FP results never read before overwrite.
    """

    window_instructions: int
    window_cycles: int
    cpi: float
    fp_writeback: np.ndarray
    fp_global_index: np.ndarray
    wrong_path_fp_fraction: float
    dead_fp_fraction: float
    store_forward_rate: float
    total_instructions: int = 0
    total_cycles: int = 0

    def cycle_of_fp(self, fp_index: int) -> int:
        """Cycle at which FP instruction ``fp_index`` writes back.

        Inside the simulated window this is exact; beyond it, the window's
        FP cadence extrapolates (documented sampling deviation).
        """
        if self.fp_writeback.size == 0:
            return 0
        pos = int(np.searchsorted(self.fp_global_index, fp_index))
        if pos < self.fp_writeback.size and \
                self.fp_global_index[pos] == fp_index:
            return int(self.fp_writeback[pos])
        per_fp = self.window_cycles / max(1, self.fp_writeback.size)
        return int(fp_index * per_fp)


class OoOCore:
    """Timestamp-based out-of-order pipeline model."""

    def __init__(self, params: CoreParams = CoreParams()):
        self.params = params

    def simulate(self, window: TraceWindow,
                 total_fp_instructions: Optional[int] = None,
                 ops_per_fp: Optional[float] = None) -> PipelineSchedule:
        """Timing-simulate a trace window and extrapolate program totals.

        One O(n) pass over the window's columns as Python lists.  Only
        the previous instruction's fetch and commit times are live, plus
        a ``rob_size`` ring of commit times for the ROB look-back; only
        FP writebacks are kept.
        """
        p = self.params
        n = len(window)
        if n == 0:
            return PipelineSchedule(
                window_instructions=0, window_cycles=0, cpi=0.0,
                fp_writeback=np.zeros(0, dtype=np.int64),
                fp_global_index=np.zeros(0, dtype=np.int64),
                wrong_path_fp_fraction=0.0, dead_fp_fraction=0.0,
                store_forward_rate=0.0,
            )

        cls = window.cls.tolist()
        src1 = window.src1.tolist()
        src2 = window.src2.tolist()
        dest = window.dest.tolist()

        FP = int(InstrClass.FP)
        LOAD = int(InstrClass.LOAD)
        STORE = int(InstrClass.STORE)
        BRANCH = int(InstrClass.BRANCH)
        step = 1.0 / p.fetch_width
        rob = p.rob_size
        penalty = p.mispredict_penalty
        div_blocking = p.fp_div_blocking

        reg_ready = [0.0] * (2 * NUM_REGS)
        # Rotating FU free times per pool.
        int_free = [0.0] * p.int_units
        mem_free = [0.0] * p.mem_units
        fp_free = [0.0] * p.fp_units
        # commit_ring[i % rob] holds commit[i - rob] until instruction i
        # overwrites it; its zero start never binds since fetch >= 0.
        commit_ring = [0.0] * rob
        slot_rob = 0
        fp_writeback: List[float] = []
        fetch = -step  # the first instruction fetches at cycle 0
        commit = 0.0
        redirect_at = 0.0
        wrong_path_cycles = 0.0

        for c, lat, d, s1, s2, mispredicted in zip(
                cls, window.latency.tolist(), dest, src1, src2,
                window.mispredicted.tolist()):
            # Fetch: width, ROB occupancy, and any pending redirect.
            fetch += step
            if commit_ring[slot_rob] > fetch:
                fetch = commit_ring[slot_rob]
            if redirect_at > fetch:
                fetch = redirect_at

            # Register read-after-write dependencies (FP bank offset),
            # then the structural hazard on the right FU pool.
            if c == FP:
                bank = NUM_REGS
                pool = fp_free
            else:
                bank = 0
                pool = mem_free if c == LOAD or c == STORE else int_free
            ready = fetch + 1.0  # decode/rename
            if s1 >= 0 and reg_ready[bank + s1] > ready:
                ready = reg_ready[bank + s1]
            if s2 >= 0 and reg_ready[bank + s2] > ready:
                ready = reg_ready[bank + s2]

            free = min(pool)
            slot = pool.index(free)
            start = free if free > ready else ready
            done = start + lat
            if div_blocking and c == FP and lat >= 20:
                pool[slot] = done
            else:
                pool[slot] = start + 1.0
            if c == FP:
                fp_writeback.append(done)

            if d >= 0:
                reg_ready[bank + d] = done

            if done > commit:
                commit = done
            commit_ring[slot_rob] = commit
            slot_rob += 1
            if slot_rob == rob:
                slot_rob = 0

            if mispredicted and c == BRANCH:
                resolve = done + penalty
                if resolve - fetch > 0.0:
                    wrong_path_cycles += resolve - fetch
                redirect_at = resolve

        window_cycles = math.ceil(commit)
        cpi = window_cycles / n

        fp_mask = window.cls == FP
        fp_wb = np.array(fp_writeback, dtype=np.float64).astype(np.int64)
        fp_idx = window.fp_index[fp_mask]

        # Wrong-path FP estimate: during redirect windows the front-end
        # fetched fetch_width instructions/cycle down the wrong path, with
        # the window's FP density.
        fp_density = fp_mask.mean()
        wrong_fp = wrong_path_cycles * p.fetch_width * fp_density
        wrong_frac = wrong_fp / max(1.0, wrong_fp + fp_mask.sum())

        dead_frac = _dead_write_fraction(cls, src1, src2, dest)
        fwd_rate = _store_forward_rate(cls, src1, src2)

        total_fp = total_fp_instructions or int(fp_mask.sum())
        opf = ops_per_fp if ops_per_fp is not None else (
            (n - fp_mask.sum()) / max(1, fp_mask.sum())
        )
        total_instr = int(round(total_fp * (1.0 + opf)))
        total_cycles = int(round(total_instr * cpi))

        return PipelineSchedule(
            window_instructions=n,
            window_cycles=window_cycles,
            cpi=cpi,
            fp_writeback=fp_wb,
            fp_global_index=fp_idx,
            wrong_path_fp_fraction=float(wrong_frac),
            dead_fp_fraction=float(dead_frac),
            store_forward_rate=float(fwd_rate),
            total_instructions=total_instr,
            total_cycles=total_cycles,
        )


def _dead_write_fraction(cls: List[int], src1: List[int], src2: List[int],
                         dest: List[int]) -> float:
    """Fraction of FP register writes overwritten before any read."""
    fp = int(InstrClass.FP)
    # Written FP registers -> read since their last write.
    read_since: Dict[int, bool] = {}
    dead = 0
    total = 0
    for c, s1, s2, d in zip(cls, src1, src2, dest):
        if c != fp:
            continue
        if s1 >= 0 and s1 in read_since:
            read_since[s1] = True
        if s2 >= 0 and s2 in read_since:
            read_since[s2] = True
        if d >= 0:
            total += 1
            if read_since.get(d) is False:
                dead += 1
            read_since[d] = False
    return dead / total if total else 0.0


def _store_forward_rate(cls: List[int], src1: List[int],
                        src2: List[int]) -> float:
    """Fraction of loads serviced by an in-flight earlier store.

    Uses register-id coincidence as the (synthetic) address proxy: a load
    whose address register matches a store's within the last ROB-ish
    window forwards.
    """
    load, store = int(InstrClass.LOAD), int(InstrClass.STORE)
    recent_stores: Deque[int] = deque(maxlen=16)
    forwards = 0
    loads = 0
    for c, s1, s2 in zip(cls, src1, src2):
        if c == store:
            recent_stores.append(s2)
        elif c == load:
            loads += 1
            if s1 in recent_stores:
                forwards += 1
    return forwards / loads if loads else 0.0


class FunctionalCore:
    """In-order functional core for the tiny demonstration ISA.

    Executes :class:`~repro.uarch.isa.Instruction` lists with two 32-entry
    register banks and a word-addressed memory.  FP instructions run
    through the bit-accurate softfloat; an ``inject`` map of
    {dynamic FP index: bitmask} XORs destination registers exactly the way
    the campaign injector corrupts the big workloads.
    """

    def __init__(self, memory_words: int = 1024):
        self.int_regs = [0] * NUM_REGS
        self.fp_regs = [0] * NUM_REGS
        self.memory = [0] * memory_words
        self.fp_dyn_count = 0
        self.instructions_executed = 0
        self.pc = 0
        self.halted = False

    def run(self, program: Sequence[Instruction],
            inject: Optional[Dict[int, int]] = None,
            max_steps: int = 1_000_000,
            step_limit: Optional[int] = None,
            resume: bool = False) -> int:
        """Execute until 'halt'; returns executed instruction count.

        ``step_limit`` stops after that many instructions with the
        architectural state (``pc``, registers, memory, ``fp_dyn_count``)
        intact; ``resume=True`` continues from the current state instead
        of restarting at instruction 0 — together they let a caller (or
        a restored :mod:`repro.uarch.snapshot` checkpoint) split one
        execution into prefix + suffix that is bit-identical to the
        unsplit run.
        """
        inject = inject or {}
        if not resume:
            self.pc = 0
            self.halted = False
        steps = 0
        while not self.halted and 0 <= self.pc < len(program):
            if steps >= max_steps:
                raise TimeoutError("functional core exceeded step budget")
            if step_limit is not None and steps >= step_limit:
                break
            instr = program[self.pc]
            steps += 1
            self.instructions_executed += 1
            next_pc = self._step(instr, self.pc, inject)
            if next_pc is None:
                self.halted = True
                break
            self.pc = next_pc
        return steps

    def _step(self, instr: Instruction, pc: int,
              inject: Dict[int, int]) -> Optional[int]:
        op = instr.opcode
        if op == "halt":
            return None
        if op == "li":
            self.int_regs[instr.dest] = instr.imm & 0xFFFFFFFFFFFFFFFF
        elif op == "add":
            self.int_regs[instr.dest] = (
                self.int_regs[instr.src1] + self.int_regs[instr.src2]
            ) & 0xFFFFFFFFFFFFFFFF
        elif op == "sub":
            self.int_regs[instr.dest] = (
                self.int_regs[instr.src1] - self.int_regs[instr.src2]
            ) & 0xFFFFFFFFFFFFFFFF
        elif op == "mul":
            self.int_regs[instr.dest] = (
                self.int_regs[instr.src1] * self.int_regs[instr.src2]
            ) & 0xFFFFFFFFFFFFFFFF
        elif op == "fp":
            a = self.fp_regs[instr.src1]
            b = self.fp_regs[instr.src2]
            result = softfloat.execute(instr.fp_op, a, b)
            mask = inject.get(self.fp_dyn_count, 0)
            self.fp_dyn_count += 1
            self.fp_regs[instr.dest] = result ^ mask
        elif op == "load":
            address = self.int_regs[instr.src1] + instr.imm
            if not 0 <= address < len(self.memory):
                raise MemoryError(f"load fault at address {address}")
            self.int_regs[instr.dest] = self.memory[address]
        elif op == "store":
            address = self.int_regs[instr.src1] + instr.imm
            if not 0 <= address < len(self.memory):
                raise MemoryError(f"store fault at address {address}")
            self.memory[address] = self.int_regs[instr.src2]
        elif op == "beqz":
            if self.int_regs[instr.src1] == 0:
                return instr.target
        elif op == "jmp":
            return instr.target
        return pc + 1
