"""Gate-level netlist container.

The equivalent of the post-synthesis Verilog netlist (.v) the paper feeds
to ModelSim: a directed graph of cell instances connected by named nets,
with declared primary inputs and outputs.  Provides validation (arity,
drivers, combinational-loop detection) and the topological order that both
static timing analysis and event-driven simulation build on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.circuit.cells import Cell, CellLibrary, LIBRARY


@dataclass
class Gate:
    """One cell instance: which cell, its input nets, its output net.

    ``wire_delay_ps`` is the interconnect delay added by the SDF annotation
    step (zero for a freshly built netlist); the effective propagation
    delay of the instance is ``cell.delay_ps + wire_delay_ps``, both scaled
    by the operating point's voltage factor at analysis time.
    """

    name: str
    cell: Cell
    inputs: List[str]
    output: str
    wire_delay_ps: float = 0.0

    @property
    def delay_ps(self) -> float:
        return self.cell.delay_ps + self.wire_delay_ps


class Netlist:
    """A flat combinational netlist with named primary inputs/outputs.

    Sequential cells (DFFs) are allowed only as output-boundary markers;
    the datapath generators in :mod:`repro.circuit.builder` emit purely
    combinational stage netlists, matching the per-pipeline-stage path
    model of Section II.A.
    """

    def __init__(self, name: str, library: CellLibrary = LIBRARY):
        self.name = name
        self.library = library
        self.gates: List[Gate] = []
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._driver: Dict[str, Gate] = {}
        self._topo_cache: Optional[List[Gate]] = None

    # -- construction ---------------------------------------------------------
    def add_input(self, net: str) -> str:
        if net in self._driver or net in self.inputs:
            raise ValueError(f"net {net!r} already driven")
        self.inputs.append(net)
        return net

    def add_inputs(self, nets: Iterable[str]) -> List[str]:
        return [self.add_input(n) for n in nets]

    def add_gate(self, cell_name: str, inputs: Sequence[str], output: str,
                 name: str = "") -> Gate:
        cell = self.library[cell_name]
        if len(inputs) != cell.inputs:
            raise ValueError(
                f"{cell_name} takes {cell.inputs} inputs, got {len(inputs)}"
            )
        if output in self._driver or output in self.inputs:
            raise ValueError(f"net {output!r} already driven")
        gate = Gate(name=name or f"g{len(self.gates)}", cell=cell,
                    inputs=list(inputs), output=output)
        self.gates.append(gate)
        self._driver[output] = gate
        self._topo_cache = None
        return gate

    def mark_output(self, net: str) -> str:
        if net not in self._driver and net not in self.inputs:
            raise ValueError(f"cannot mark undriven net {net!r} as output")
        if net not in self.outputs:
            self.outputs.append(net)
        return net

    def mark_outputs(self, nets: Iterable[str]) -> List[str]:
        return [self.mark_output(n) for n in nets]

    # -- queries ---------------------------------------------------------------
    def driver_of(self, net: str) -> Optional[Gate]:
        return self._driver.get(net)

    @property
    def nets(self) -> List[str]:
        seen = dict.fromkeys(self.inputs)
        for gate in self.gates:
            seen.setdefault(gate.output, None)
        return list(seen)

    def fanout(self) -> Dict[str, List[Gate]]:
        """Map net -> list of gate instances reading it."""
        out: Dict[str, List[Gate]] = {net: [] for net in self.nets}
        for gate in self.gates:
            for net in gate.inputs:
                if net not in out:
                    raise ValueError(
                        f"gate {gate.name} reads undeclared net {net!r}"
                    )
                out[net].append(gate)
        return out

    def validate(self) -> None:
        """Check all reads are driven and the graph is loop-free."""
        driven = set(self.inputs) | set(self._driver)
        for gate in self.gates:
            for net in gate.inputs:
                if net not in driven:
                    raise ValueError(
                        f"gate {gate.name} input net {net!r} has no driver"
                    )
        for net in self.outputs:
            if net not in driven:
                raise ValueError(f"output net {net!r} has no driver")
        self.topological_order()  # raises on combinational loops

    def topological_order(self) -> List[Gate]:
        """Gates in dataflow order (Kahn's algorithm); cached."""
        if self._topo_cache is not None:
            return self._topo_cache
        indegree: Dict[str, int] = {}
        for gate in self.gates:
            indegree[gate.name] = sum(1 for n in gate.inputs if n in self._driver)
        by_input = self.fanout()
        ready = deque(g for g in self.gates if indegree[g.name] == 0)
        order: List[Gate] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            for consumer in by_input.get(gate.output, ()):
                indegree[consumer.name] -= 1
                if indegree[consumer.name] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            raise ValueError(f"combinational loop detected in netlist {self.name}")
        self._topo_cache = order
        return order

    def evaluate(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Zero-delay functional evaluation; returns values for all nets."""
        values: Dict[str, int] = {}
        for net in self.inputs:
            if net not in input_values:
                raise ValueError(f"missing value for input net {net!r}")
            values[net] = input_values[net] & 1
        for gate in self.topological_order():
            operands = tuple(values[n] for n in gate.inputs)
            values[gate.output] = gate.cell.evaluate(operands)
        return values

    def stats(self) -> Dict[str, int]:
        """Cell-count summary, like a synthesis report."""
        counts: Dict[str, int] = {}
        for gate in self.gates:
            counts[gate.cell.name] = counts.get(gate.cell.name, 0) + 1
        counts["_total"] = len(self.gates)
        counts["_inputs"] = len(self.inputs)
        counts["_outputs"] = len(self.outputs)
        return counts

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Netlist({self.name!r}, gates={len(self.gates)}, "
                f"inputs={len(self.inputs)}, outputs={len(self.outputs)})")
