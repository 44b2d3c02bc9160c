"""The FPU instruction set of the study (Section IV.B).

Twelve instructions: multiplication, division, addition, subtraction and
the two int<->float conversions, each in single and double precision —
matching the marocchino FPU configuration the paper characterises.  Every
instruction knows its format geometry and latency class; the timing model
keys its calibration constants off :attr:`FpOp.kind` and
:attr:`FpOp.is_double`.
"""

from __future__ import annotations

import enum
from typing import List

from repro.utils.ieee754 import DOUBLE, SINGLE, FloatFormat


class FpOp(enum.Enum):
    """One of the 12 floating-point instructions under study."""

    ADD_D = "fp.add.d"
    SUB_D = "fp.sub.d"
    MUL_D = "fp.mul.d"
    DIV_D = "fp.div.d"
    I2F_D = "fp.itof.d"
    F2I_D = "fp.ftoi.d"
    ADD_S = "fp.add.s"
    SUB_S = "fp.sub.s"
    MUL_S = "fp.mul.s"
    DIV_S = "fp.div.s"
    I2F_S = "fp.itof.s"
    F2I_S = "fp.ftoi.s"

    # -- classification --------------------------------------------------------
    @property
    def kind(self) -> str:
        """Operation family: add/sub/mul/div/i2f/f2i."""
        return _KIND[self]

    @property
    def fmt(self) -> FloatFormat:
        return DOUBLE if _IS_DOUBLE[self] else SINGLE

    @property
    def is_double(self) -> bool:
        return _IS_DOUBLE[self]

    @property
    def has_two_operands(self) -> bool:
        return _TWO_OPERANDS[self]

    @property
    def latency_cycles(self) -> int:
        """Pipeline occupancy used by the microarchitecture model.

        Matches the Fig. 3 structure: add/sub flow through the 6-stage
        pipeline, mul carries the array, div is long-latency iterative.
        """
        return _LATENCY_CYCLES[self]

    @property
    def mnemonic(self) -> str:
        return self.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Per-member property tables, built once: the properties above run per
# FP operation in the softfloat, the FP context and trace synthesis.
_KIND = {op: op.name.rsplit("_", 1)[0].lower() for op in FpOp}
_IS_DOUBLE = {op: op.name.endswith("_D") for op in FpOp}
_TWO_OPERANDS = {op: _KIND[op] in ("add", "sub", "mul", "div") for op in FpOp}
_LATENCY_CYCLES = {
    op: {"add": 6, "sub": 6, "mul": 7, "div": 24, "i2f": 3, "f2i": 3}[
        _KIND[op]]
    for op in FpOp
}


#: Double-precision instructions (the error-prone set under VR15/VR20).
OPS_DOUBLE: List[FpOp] = [
    FpOp.ADD_D, FpOp.SUB_D, FpOp.MUL_D, FpOp.DIV_D, FpOp.I2F_D, FpOp.F2I_D,
]

#: Single-precision instructions (error-free at the paper's VR levels).
OPS_SINGLE: List[FpOp] = [
    FpOp.ADD_S, FpOp.SUB_S, FpOp.MUL_S, FpOp.DIV_S, FpOp.I2F_S, FpOp.F2I_S,
]

#: All 12 instructions, model-development-phase order.
ALL_OPS: List[FpOp] = OPS_DOUBLE + OPS_SINGLE


def op_by_mnemonic(mnemonic: str) -> FpOp:
    """Look an instruction up by its assembly mnemonic."""
    for op in FpOp:
        if op.value == mnemonic:
            return op
    raise KeyError(f"unknown FP instruction mnemonic {mnemonic!r}")
