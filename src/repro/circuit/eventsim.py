"""Event-driven gate-level logic-and-timing simulation (ModelSim substitute).

Transport-delay simulation of a :class:`~repro.circuit.netlist.Netlist`:
each input transition schedules re-evaluations through the gate graph, and
every net records when it last changed.  Sampling the primary outputs at
the clock edge then reveals *timing errors*: output bits whose final
settling happens after the edge are captured with their stale (pre-settle)
value, exactly the mechanism of Section II.A.

This is the reference simulator the vectorised FPU macro-timing model is
calibrated against; it is bit- and picosecond-exact but scales only to
netlists of a few tens of thousands of gates and a few thousand vectors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.circuit.netlist import Netlist
from repro import telemetry


@dataclass
class SimulationResult:
    """Outcome of simulating one input transition.

    - ``final_values``: settled value of every net,
    - ``settle_times``: time of the last value change per net (0.0 if the
      net never toggled during this transition),
    - ``output_history``: per-primary-output list of (time, value) changes,
      starting with the initial value at t = -inf (encoded as time 0 entry
      ordering-first).
    """

    final_values: Dict[str, int]
    settle_times: Dict[str, float]
    output_history: Dict[str, List[Tuple[float, int]]]
    events_processed: int

    def sampled_outputs(self, clock_ps: float) -> Dict[str, int]:
        """Value a capture flop would latch at the clock edge per output."""
        sampled: Dict[str, int] = {}
        for net, history in self.output_history.items():
            value = history[0][1]
            for time, v in history[1:]:
                if time <= clock_ps:
                    value = v
                else:
                    break
            sampled[net] = value
        return sampled

    def timing_error_bits(self, clock_ps: float) -> Dict[str, bool]:
        """Per-output flag: sampled value differs from settled value."""
        sampled = self.sampled_outputs(clock_ps)
        return {
            net: sampled[net] != self.final_values[net]
            for net in self.output_history
        }


class EventSimulator:
    """Transport-delay event simulation with voltage-scaled gate delays."""

    def __init__(self, netlist: Netlist, delay_factor: float = 1.0):
        if delay_factor <= 0:
            raise ValueError("delay_factor must be positive")
        self.netlist = netlist
        self.delay_factor = delay_factor
        self._fanout = netlist.fanout()
        self._outputs = list(netlist.outputs)

    def simulate(
        self,
        initial_inputs: Dict[str, int],
        final_inputs: Dict[str, int],
        max_events: int = 5_000_000,
    ) -> SimulationResult:
        """Settle at ``initial_inputs``, then transition to ``final_inputs``.

        Mirrors the paper's two-cycle structure: the circuit holds the
        previous instruction's operands, then the new operands arrive at
        the active clock edge (t = 0) and race the next edge.
        """
        values = self.netlist.evaluate(initial_inputs)
        settle_times: Dict[str, float] = {net: 0.0 for net in values}
        history: Dict[str, List[Tuple[float, int]]] = {
            net: [(-1.0, values[net])] for net in self._outputs
        }

        heap: List[Tuple[float, int, str, int]] = []
        counter = 0
        for net in self.netlist.inputs:
            if net not in final_inputs:
                raise ValueError(f"missing final value for input net {net!r}")
            new_value = final_inputs[net] & 1
            if new_value != values[net]:
                heapq.heappush(heap, (0.0, counter, net, new_value))
                counter += 1

        events = 0
        while heap:
            time, _, net, value = heapq.heappop(heap)
            events += 1
            if events > max_events:
                raise RuntimeError(
                    f"event budget exceeded simulating {self.netlist.name}"
                )
            if values[net] == value:
                continue
            values[net] = value
            settle_times[net] = time
            if net in history:
                history[net].append((time, value))
            for gate in self._fanout.get(net, ()):
                operands = tuple(values[n] for n in gate.inputs)
                out_value = gate.cell.evaluate(operands)
                out_time = time + gate.delay_ps * self.delay_factor
                heapq.heappush(heap, (out_time, counter, gate.output, out_value))
                counter += 1

        telemetry.count("eventsim.simulations")
        telemetry.count("eventsim.events", events)
        return SimulationResult(
            final_values=values,
            settle_times=settle_times,
            output_history=history,
            events_processed=events,
        )

    def settle(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Zero-delay functional evaluation (golden reference)."""
        return self.netlist.evaluate_outputs(inputs)
