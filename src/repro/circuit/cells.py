"""Standard-cell library model.

Stands in for the NanGate FreePDK45 Composite Current Source library the
paper implements the FPU with.  Each :class:`Cell` carries a boolean
function and a nominal propagation delay in picoseconds (typical corner:
1.1 V, 25 C).  Delay under reduced supply voltage is obtained by scaling
with :class:`repro.circuit.liberty.VoltageScalingModel`, mirroring the
SiliconSmart re-characterisation step of Section IV.B.1.

Delays are representative of a 45 nm process (inverter FO4 around 15 ps)
and, crucially for the reproduction, keep the *relative* ordering of cell
delays (XOR > NAND > INV, full adder carry < sum) that shapes real
datapath critical paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

LogicFn = Callable[[Tuple[int, ...]], int]


@dataclass(frozen=True)
class Cell:
    """One standard cell: name, arity, boolean function, nominal delay.

    ``delay_ps`` is the pin-to-pin propagation delay at the typical corner
    for a fanout-of-4 load; interconnect load is added separately by the
    SDF annotation step.  ``sequential`` marks flip-flops, which terminate
    timing paths instead of propagating through them.
    """

    name: str
    inputs: int
    function: LogicFn
    delay_ps: float
    sequential: bool = False
    description: str = ""

    def evaluate(self, values: Tuple[int, ...]) -> int:
        if len(values) != self.inputs:
            raise ValueError(
                f"cell {self.name} expects {self.inputs} inputs, got {len(values)}"
            )
        return self.function(values) & 1


def _inv(v):
    return 1 - v[0]


def _buf(v):
    return v[0]


def _nand2(v):
    return 1 - (v[0] & v[1])


def _nor2(v):
    return 1 - (v[0] | v[1])


def _and2(v):
    return v[0] & v[1]


def _or2(v):
    return v[0] | v[1]


def _xor2(v):
    return v[0] ^ v[1]


def _xnor2(v):
    return 1 - (v[0] ^ v[1])


def _and3(v):
    return v[0] & v[1] & v[2]


def _or3(v):
    return v[0] | v[1] | v[2]


def _nand3(v):
    return 1 - (v[0] & v[1] & v[2])


def _nor3(v):
    return 1 - (v[0] | v[1] | v[2])


def _xor3(v):
    return v[0] ^ v[1] ^ v[2]


def _mux2(v):
    # inputs: (d0, d1, select)
    return v[1] if v[2] else v[0]


def _aoi21(v):
    # inputs: (a1, a2, b) -> !((a1 & a2) | b)
    return 1 - ((v[0] & v[1]) | v[2])


def _oai21(v):
    # inputs: (a1, a2, b) -> !((a1 | a2) & b)
    return 1 - ((v[0] | v[1]) & v[2])


def _maj3(v):
    # full-adder carry: majority of three
    return (v[0] & v[1]) | (v[1] & v[2]) | (v[0] & v[2])


def _dff(v):
    return v[0]


def _tie0(v):
    return 0


def _tie1(v):
    return 1


class CellLibrary:
    """A named collection of cells with lookup and registration."""

    def __init__(self, name: str):
        self.name = name
        self._cells: Dict[str, Cell] = {}

    def add(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell {cell.name} in library {self.name}")
        self._cells[cell.name] = cell
        return cell

    def __getitem__(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"unknown cell {name!r} in library {self.name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def names(self):
        return sorted(self._cells)


def default_library() -> CellLibrary:
    """The 45 nm-like library used by every netlist in the reproduction."""
    lib = CellLibrary("repro45")
    for cell in (
        Cell("INV", 1, _inv, 15.0, description="inverter"),
        Cell("BUF", 1, _buf, 22.0, description="buffer"),
        Cell("NAND2", 2, _nand2, 20.0, description="2-input NAND"),
        Cell("NOR2", 2, _nor2, 24.0, description="2-input NOR"),
        Cell("AND2", 2, _and2, 28.0, description="2-input AND"),
        Cell("OR2", 2, _or2, 30.0, description="2-input OR"),
        Cell("XOR2", 2, _xor2, 42.0, description="2-input XOR"),
        Cell("XNOR2", 2, _xnor2, 44.0, description="2-input XNOR"),
        Cell("NAND3", 3, _nand3, 26.0, description="3-input NAND"),
        Cell("NOR3", 3, _nor3, 32.0, description="3-input NOR"),
        Cell("AND3", 3, _and3, 34.0, description="3-input AND"),
        Cell("OR3", 3, _or3, 36.0, description="3-input OR"),
        Cell("XOR3", 3, _xor3, 66.0, description="3-input XOR (FA sum)"),
        Cell("MUX2", 3, _mux2, 38.0, description="2:1 multiplexer (d0,d1,sel)"),
        Cell("AOI21", 3, _aoi21, 26.0, description="and-or-invert 2-1"),
        Cell("OAI21", 3, _oai21, 26.0, description="or-and-invert 2-1"),
        Cell("MAJ3", 3, _maj3, 48.0, description="majority (FA carry)"),
        Cell("DFF", 1, _dff, 35.0, sequential=True,
             description="D flip-flop (delay = clk-to-q + setup budget)"),
        Cell("TIE0", 0, _tie0, 0.0, description="constant logic-0"),
        Cell("TIE1", 0, _tie1, 0.0, description="constant logic-1"),
    ):
        lib.add(cell)
    return lib


#: Library singleton shared by the builders; treat as read-only.
LIBRARY = default_library()
