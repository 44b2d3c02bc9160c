"""Dynamic timing analysis (Section III.A.1).

Runs the two-parallel-instance experiment of the paper on a netlist: one
event-driven simulation at nominal delays and one at voltage-scaled
(longer) delays.  The nominal instance's settled output is the golden
value; the scaled instance is sampled at the clock edge and XOR-compared
bit-by-bit against the golden output, yielding the per-instruction error
*bitmask* that drives injection.

:class:`DynamicTimingAnalysis` is the ``event`` timing backend: the
bit-exact reference implementation of the batch-first
:class:`~repro.circuit.backend.TimingBackend` protocol.  It analyses one
lane at a time internally; the levelized bit-parallel engine in
:mod:`repro.circuit.bitsim` produces identical verdicts at a fraction of
the cost and should be preferred on hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.circuit.backend import BatchOutcome, unpack_input_words
from repro.circuit.eventsim import EventSimulator
from repro.circuit.netlist import Netlist
from repro import telemetry


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


class DynamicTimingAnalysis:
    """Two-instance DTA over a netlist at a fixed clock and delay factor.

    This is the ``event`` backend: each lane of a batch runs through the
    event-driven simulator independently, making it the ground truth the
    bit-parallel backend is differentially tested against.
    """

    name = "event"

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
        golden_values = self._nominal.settle(current)
        golden = self._pack(golden_values)

        result = self._scaled.simulate(previous, current)
        sampled = self._pack(result.sampled_outputs(self.clock_ps))
        worst = max(
            (result.settle_times[n] for n in self._outputs), default=0.0
        )
        telemetry.count("dta.transitions")
        telemetry.observe("dta.settle_ps", worst)
        return DtaOutcome(
            golden=golden,
            sampled=sampled,
            bitmask=golden ^ sampled,
            worst_settle_ps=worst,
        )

    def analyze_batch(self, prev_words: Sequence[int],
                      cur_words: Sequence[int], *,
                      count: int) -> BatchOutcome:
        """DTA verdicts for ``count`` lanes of back-to-back transitions.

        Reference semantics: lanes are simulated one at a time through
        the event engine, so a batch is exactly equivalent to ``count``
        batches of one lane each.
        """
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
