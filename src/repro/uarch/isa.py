"""Compact dynamic-instruction encoding used by the core model.

The timing model does not need full semantics for the non-FP portion of a
program — only the structural features that shape pipeline behaviour:
instruction class, register dependencies, and FP latency class.  The
functional in-order core in :mod:`repro.uarch.core` additionally executes
small hand-written programs with full semantics for end-to-end tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.fpu.formats import FpOp


class InstrClass(enum.IntEnum):
    """Dynamic instruction classes of the trace model."""

    INT_ALU = 0
    LOAD = 1
    STORE = 2
    BRANCH = 3
    FP = 4
    NOP = 5


#: Execution latency (cycles) per class; FP latency comes from the FpOp.
CLASS_LATENCY = {
    InstrClass.INT_ALU: 1,
    InstrClass.LOAD: 3,
    InstrClass.STORE: 1,
    InstrClass.BRANCH: 1,
    InstrClass.NOP: 1,
}

#: Number of architectural registers in each bank of the trace model.
NUM_REGS = 32


@dataclass(frozen=True)
class Instruction:
    """A fully specified instruction for the functional core.

    ``opcode`` is one of: 'li', 'add', 'sub', 'mul', 'fp', 'beqz', 'jmp',
    'load', 'store', 'halt'.  FP instructions carry their :class:`FpOp`
    and read/write the FP register bank; everything else uses the integer
    bank.  This tiny ISA exists so tests and examples can demonstrate
    injection semantics (bitmask XOR on a destination register) on real
    executed programs.
    """

    opcode: str
    dest: int = 0
    src1: int = 0
    src2: int = 0
    imm: int = 0
    fp_op: Optional[FpOp] = None
    target: int = 0

    def __post_init__(self):
        valid = {"li", "add", "sub", "mul", "fp", "beqz", "jmp",
                 "load", "store", "halt"}
        if self.opcode not in valid:
            raise ValueError(f"unknown opcode {self.opcode!r}")
        if self.opcode == "fp" and self.fp_op is None:
            raise ValueError("fp instruction requires fp_op")
