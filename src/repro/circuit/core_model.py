"""Gate-level stage netlists of the marocchino-like core (Fig. 4 substrate).

Builds one representative post-synthesis netlist per pipeline stage of the
target core: the five scalar pipeline stages (whose paths are short — the
reason non-FPU instructions are timing-safe) and the FPU stages of Fig. 3
(pre-normalise, align, mantissa add, multiplier array, normalise/round —
the long, error-prone paths).  Static timing analysis over these stages
yields the Eq. 1 clock period and the Fig. 4 longest-path distribution.

The multiplier mantissa array is built at half mantissa width (one of the
two interleaved halves of the DP array, see DESIGN.md) to keep the gate
count tractable; path-depth ordering between stages is preserved.
"""

from __future__ import annotations

from typing import Dict

from repro.circuit.builder import NetlistBuilder
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import annotate_interconnect

#: Stage name -> whether it belongs to the FPU subsystem.
FPU_STAGES = {
    "fpu_prenorm": True,
    "fpu_align": True,
    "fpu_mantissa_add": True,
    "fpu_multiplier": True,
    "fpu_normalize": True,
    "if_stage": False,
    "id_stage": False,
    "ex_int": False,
    "lsu": False,
    "wb": False,
}


def _if_stage() -> Netlist:
    """Fetch: 32-bit PC incrementer."""
    builder = NetlistBuilder("if_stage")
    pc = builder.inputs("pc", 32)
    next_pc, _ = builder.incrementer(pc)
    builder.outputs(next_pc)
    return builder.build()


def _id_stage() -> Netlist:
    """Decode: 6-to-64 one-hot decoder plus a small control PLA."""
    builder = NetlistBuilder("id_stage")
    opcode = builder.inputs("op", 6)
    onehot = builder.decoder(opcode)
    controls = [builder.reduce_tree("OR2", onehot[i::8]) for i in range(8)]
    builder.outputs(onehot[:16])
    builder.outputs(controls)
    return builder.build()


def _ex_int() -> Netlist:
    """Integer execute: 32-bit carry-select ALU adder + logic unit."""
    builder = NetlistBuilder("ex_int")
    a = builder.inputs("a", 32)
    b = builder.inputs("b", 32)
    sums, cout = builder.carry_select_adder(a, b, block=4)
    logic = [builder.xor2(x, y) for x, y in zip(a, b)]
    builder.outputs(sums)
    builder.outputs([cout])
    builder.outputs(logic[:8])
    return builder.build()


def _lsu() -> Netlist:
    """Load/store: 32-bit address adder + alignment mux."""
    builder = NetlistBuilder("lsu")
    base = builder.inputs("base", 32)
    offset = builder.inputs("off", 32)
    address, _ = builder.carry_select_adder(base, offset, block=8)
    builder.outputs(address)
    return builder.build()


def _wb() -> Netlist:
    """Writeback: result-select mux tree."""
    builder = NetlistBuilder("wb")
    r0 = builder.inputs("r0", 16)
    r1 = builder.inputs("r1", 16)
    r2 = builder.inputs("r2", 16)
    sel0 = builder.netlist.add_input("sel0")
    sel1 = builder.netlist.add_input("sel1")
    first = [builder.mux2(a, b, sel0) for a, b in zip(r0, r1)]
    final = [builder.mux2(a, b, sel1) for a, b in zip(first, r2)]
    builder.outputs(final)
    return builder.build()


def _fpu_prenorm() -> Netlist:
    """FPU stage 1: exponent difference + leading-zero count."""
    builder = NetlistBuilder("fpu_prenorm")
    ea = builder.inputs("ea", 11)
    eb = builder.inputs("eb", 11)
    mant = builder.inputs("m", 24)
    diff, borrow = builder.subtractor(ea, eb)
    lz = builder.leading_zero_counter(mant)
    builder.outputs(diff)
    builder.outputs([borrow])
    builder.outputs(lz)
    return builder.build()


def _fpu_align() -> Netlist:
    """FPU stage 2: 56-bit alignment barrel shifter."""
    builder = NetlistBuilder("fpu_align")
    data = builder.inputs("d", 56)
    amount = builder.inputs("sh", 6)
    shifted = builder.barrel_shifter_right(data, amount)
    builder.outputs(shifted)
    return builder.build()


def _fpu_mantissa_add() -> Netlist:
    """FPU stage 4: 56-bit mantissa ripple-carry adder.

    marocchino's FPU is area-optimised; a plain ripple mantissa adder is
    the structure whose data-dependent carry chains the macro-timing
    model's add/sub path is calibrated against.
    """
    builder = NetlistBuilder("fpu_mantissa_add")
    a = builder.inputs("a", 56)
    b = builder.inputs("b", 56)
    sums, cout = builder.ripple_adder(a, b)
    builder.outputs(sums)
    builder.outputs([cout])
    return builder.build()


def _fpu_multiplier(width: int = 18) -> Netlist:
    """FPU multiply: mantissa array half (see module docstring)."""
    builder = NetlistBuilder("fpu_multiplier")
    a = builder.inputs("a", width)
    b = builder.inputs("b", width)
    product = builder.array_multiplier(a, b)
    builder.outputs(product)
    return builder.build()


def _fpu_normalize() -> Netlist:
    """FPU stages 5-6: LZC + left shifter + rounding incrementer."""
    builder = NetlistBuilder("fpu_normalize")
    data = builder.inputs("d", 56)
    lz = builder.leading_zero_counter(data[-28:])
    shifted = builder.barrel_shifter_left(data, lz[:6])
    rounded, _ = builder.incrementer(shifted[:53])
    builder.outputs(rounded)
    return builder.build()


_BUILDERS = {
    "if_stage": _if_stage,
    "id_stage": _id_stage,
    "ex_int": _ex_int,
    "lsu": _lsu,
    "wb": _wb,
    "fpu_prenorm": _fpu_prenorm,
    "fpu_align": _fpu_align,
    "fpu_mantissa_add": _fpu_mantissa_add,
    "fpu_multiplier": _fpu_multiplier,
    "fpu_normalize": _fpu_normalize,
}


def build_core_stages(annotate: bool = True,
                      seed: int = 45) -> Dict[str, Netlist]:
    """All pipeline-stage netlists, optionally with P&R wire delays."""
    stages: Dict[str, Netlist] = {}
    for name, factory in _BUILDERS.items():
        netlist = factory()
        if annotate:
            annotate_interconnect(netlist, seed=seed)
        stages[name] = netlist
    return stages


def is_fpu_stage(stage_name: str) -> bool:
    return FPU_STAGES.get(stage_name, False)
