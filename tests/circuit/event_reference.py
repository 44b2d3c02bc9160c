"""Event-driven gate-level DTA: the reference the bit-parallel engine is checked against.

The paper's gate-level step runs two ModelSim instances, one at nominal
and one at voltage-scaled delays, and XOR-compares their outputs at the
clock edge (Section III.A.1).  :class:`EventSimulator` is a
transport-delay event simulation of a
:class:`~repro.circuit.netlist.Netlist`: each input transition schedules
re-evaluations through the gate graph, and every net records when it
last changed.  :class:`DynamicTimingAnalysis` runs the two instances one
lane at a time.  It is bit- and picosecond-exact but slow, so production
uses :class:`repro.circuit.bitsim.BitParallelTimingAnalysis`, whose
verdicts the differential suites require to be identical to this one's.

Lane encoding: a *word* is a Python int carrying one bit per batch lane
(bit ``j`` = lane ``j``).  A batch input is one word per primary input
net, in ``netlist.inputs`` order, so lane ``j`` of the batch is the
vector ``{net_i: (words[i] >> j) & 1}``.  :func:`pack_input_words` /
:func:`unpack_input_words` convert between word form and the
per-vector dict form the event engine consumes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuit.bitsim import BatchOutcome
from repro.circuit.netlist import Netlist


def bus_values(prefix: str, width: int, value: int) -> Dict[str, int]:
    """Input assignment dict for a little-endian bus (includes nothing else)."""
    return {f"{prefix}[{i}]": (value >> i) & 1 for i in range(width)}


def pack_input_words(netlist: Netlist,
                     vectors: Sequence[Dict[str, int]]) -> List[int]:
    """Pack per-vector input dicts into one lane-word per input net.

    Word ``i`` holds, at bit ``j``, the value of input net
    ``netlist.inputs[i]`` in ``vectors[j]``.
    """
    words = [0] * len(netlist.inputs)
    for j, vector in enumerate(vectors):
        bit = 1 << j
        for i, net in enumerate(netlist.inputs):
            if net not in vector:
                raise ValueError(f"missing value for input net {net!r}")
            if vector[net] & 1:
                words[i] |= bit
    return words


def unpack_input_words(netlist: Netlist, words: Sequence[int],
                       count: int) -> List[Dict[str, int]]:
    """Inverse of :func:`pack_input_words`: words back to per-lane dicts."""
    if len(words) != len(netlist.inputs):
        raise ValueError(
            f"expected {len(netlist.inputs)} input words, got {len(words)}"
        )
    return [
        {net: (words[i] >> j) & 1 for i, net in enumerate(netlist.inputs)}
        for j in range(count)
    ]


def stream_words(netlist: Netlist,
                 vectors: Sequence[Dict[str, int]]) -> Tuple[List[int], List[int], int]:
    """Pack a back-to-back vector stream into (prev, cur) batch words.

    A stream of ``n + 1`` vectors yields ``n`` transition lanes: lane
    ``j`` is the transition ``vectors[j] -> vectors[j + 1]``.  Returns
    ``(prev_words, cur_words, n)``.
    """
    count = len(vectors) - 1
    if count < 1:
        return [0] * len(netlist.inputs), [0] * len(netlist.inputs), 0
    full = pack_input_words(netlist, vectors)
    mask = (1 << count) - 1
    prev = [w & mask for w in full]
    cur = [w >> 1 for w in full]
    return prev, cur, count


@dataclass
class SimulationResult:
    """Outcome of simulating one input transition.

    - ``final_values``: settled value of every net,
    - ``settle_times``: time of the last value change per net (0.0 if the
      net never toggled during this transition),
    - ``output_history``: per-primary-output list of (time, value) changes,
      starting with the initial value at t = -1.
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

        return SimulationResult(
            final_values=values,
            settle_times=settle_times,
            output_history=history,
            events_processed=events,
        )

    def settle(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Zero-delay functional evaluation (golden reference)."""
        values = self.netlist.evaluate(inputs)
        return {net: values[net] for net in self._outputs}


@dataclass(frozen=True)
class DtaOutcome:
    """Result of DTA for one input transition (one 'instruction').

    ``bitmask`` has bit i set iff primary output i (in netlist output
    order) was captured with a wrong value at the clock edge — the XOR of
    golden and sampled outputs described in Section III.A.1.
    """

    golden: int
    sampled: int
    bitmask: int
    worst_settle_ps: float

    @property
    def faulty(self) -> bool:
        return self.bitmask != 0

    @property
    def flipped_bits(self) -> int:
        return bin(self.bitmask).count("1")


def outcome(batch: BatchOutcome, lane: int) -> DtaOutcome:
    """One lane of a batch verdict as a :class:`DtaOutcome`."""
    return DtaOutcome(
        golden=batch.golden[lane],
        sampled=batch.sampled[lane],
        bitmask=batch.bitmask[lane],
        worst_settle_ps=batch.worst_settle_ps[lane],
    )


def outcomes(batch: BatchOutcome) -> List[DtaOutcome]:
    return [outcome(batch, j) for j in range(len(batch))]


class DynamicTimingAnalysis:
    """Two-instance DTA over a netlist at a fixed clock and delay factor.

    Each lane of a batch runs through the event-driven simulator
    independently; a batch is exactly equivalent to ``count`` batches of
    one lane each.  Unlike the bit-parallel engine, ``worst_settle_ps``
    also counts zero-width hazard pulses, so it is >= that engine's.
    """

    def __init__(self, netlist: Netlist, clock_ps: float,
                 delay_factor: float):
        if clock_ps <= 0:
            raise ValueError("clock_ps must be positive")
        if delay_factor < 1.0:
            raise ValueError(
                "delay_factor below 1.0 means faster-than-nominal silicon; "
                "DTA models delay increase"
            )
        self.netlist = netlist
        self.clock_ps = clock_ps
        self.delay_factor = delay_factor
        self._nominal = EventSimulator(netlist, delay_factor=1.0)
        self._scaled = EventSimulator(netlist, delay_factor=delay_factor)
        self._outputs = list(netlist.outputs)

    def _pack(self, values: Dict[str, int]) -> int:
        word = 0
        for i, net in enumerate(self._outputs):
            if values[net]:
                word |= 1 << i
        return word

    def _analyze_pair(self, previous: Dict[str, int],
                      current: Dict[str, int]) -> DtaOutcome:
        """One lane through the two-instance event simulation."""
        golden = self._pack(self._nominal.settle(current))
        result = self._scaled.simulate(previous, current)
        sampled = self._pack(result.sampled_outputs(self.clock_ps))
        worst = max(
            (result.settle_times[n] for n in self._outputs), default=0.0
        )
        return DtaOutcome(
            golden=golden,
            sampled=sampled,
            bitmask=golden ^ sampled,
            worst_settle_ps=worst,
        )

    def analyze_batch(self, prev_words: Sequence[int],
                      cur_words: Sequence[int], *,
                      count: int) -> BatchOutcome:
        """DTA verdicts for ``count`` lanes of back-to-back transitions."""
        previous = unpack_input_words(self.netlist, prev_words, count)
        current = unpack_input_words(self.netlist, cur_words, count)
        lanes = [self._analyze_pair(p, c) for p, c in zip(previous, current)]
        return BatchOutcome(
            outputs=tuple(self._outputs),
            golden=tuple(o.golden for o in lanes),
            sampled=tuple(o.sampled for o in lanes),
            bitmask=tuple(o.bitmask for o in lanes),
            worst_settle_ps=tuple(o.worst_settle_ps for o in lanes),
        )

    def verify_nominal(self, previous: Dict[str, int],
                       current: Dict[str, int]) -> bool:
        """Check the nominal instance meets timing (sanity gate for CLK)."""
        result = self._nominal.simulate(previous, current)
        sampled = self._pack(result.sampled_outputs(self.clock_ps))
        return sampled == self._pack(self._nominal.settle(current))
