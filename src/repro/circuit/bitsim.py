"""Levelized bit-parallel gate simulation: the gate-level DTA engine.

The paper's gate-level step is two-instance DTA: a nominal and a
voltage-scaled simulation of the same netlist, sampled at the clock
edge and XOR-compared (Section III.A.1).  This module runs it on
*batches* of input transitions: the netlist is levelized once
(topological gate order, nets renamed to dense integer ids, cell
functions compiled to mask-aware bitwise kernels), and every net
carries a *lane word* holding one bit per batch vector — a single
Python-int/uint64 bitwise op evaluates a gate for 64 lanes at once,
with a numpy ``uint64``-array variant for wider batches.

Lane encoding: a batch input is one word per primary input net, in
``netlist.inputs`` order; bit ``j`` of word ``i`` is input ``i``'s
value in lane ``j``.

Timing is reproduced exactly by walking event *times* instead of
events: at each scheduled time, all pending net-word updates are applied
first, then every gate with a changed input (in any lane) is evaluated
once against the fully-updated words and its output word is scheduled
one gate delay later.  Because a transport-delay waveform satisfies
``out(t) = f(inputs(t - delay))``, this walk reproduces a one-transition
event-driven simulation per lane bit-for-bit; the test suite keeps that
event engine as its reference and requires golden, sampled and
fault-mask verdicts to be bit-identical to it.  The golden words are
the walk's final net words: once every event has been applied, each
gate output equals its function of the settled ``cur`` inputs, which
is exactly the zero-delay settle of ``cur``.  The one deliberate
difference: settle times track the final waveform only, so zero-width
hazard pulses (transient glitches that revert within a single
timestamp) do not advance ``worst_settle_ps`` the way an event engine's
per-event bookkeeping does; verdicts are unaffected.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.cells import Cell
from repro.circuit.netlist import Netlist
from repro import telemetry

#: Batches at or below this lane count run on Python-int words (a single
#: machine word for <= 64 lanes); larger batches switch to numpy uint64
#: arrays.  Python big-int kernels stay competitive far past 64 lanes
#: because each gate is one interpreter dispatch regardless of width;
#: measured on the stock datapaths the numpy variant only wins once
#: words span >= ~128 machine words.  This is also the default batch
#: width of :func:`repro.errors.characterize.characterize_gate`.
AUTO_NUMPY_LANES = 8192

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class _IntOps:
    """Lane words as Python ints (arbitrary precision, 64-bit fast path)."""

    kind = "int"

    @staticmethod
    def make_mask(count: int) -> int:
        return (1 << count) - 1

    @staticmethod
    def from_int(word: int, count: int) -> int:
        return word & ((1 << count) - 1)

    @staticmethod
    def to_int(word: int) -> int:
        return word

    @staticmethod
    def is_zero(word: int) -> bool:
        return word == 0

    @staticmethod
    def bits(word: int, count: int) -> np.ndarray:
        raw = word.to_bytes((count + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             count=count, bitorder="little").astype(bool)


class _ArrayOps:
    """Lane words as little-endian numpy uint64 arrays (wide batches)."""

    kind = "numpy"

    @staticmethod
    def make_mask(count: int) -> np.ndarray:
        nwords = (count + 63) // 64
        mask = np.full(nwords, _ALL_ONES, dtype=np.uint64)
        rem = count & 63
        if rem:
            mask[-1] = np.uint64((1 << rem) - 1)
        return mask

    @staticmethod
    def from_int(word: int, count: int) -> np.ndarray:
        nwords = (count + 63) // 64
        word &= (1 << count) - 1
        return np.frombuffer(word.to_bytes(nwords * 8, "little"), dtype="<u8")

    @staticmethod
    def to_int(word: np.ndarray) -> int:
        return int.from_bytes(word.tobytes(), "little")

    @staticmethod
    def is_zero(word: np.ndarray) -> bool:
        return not word.any()

    @staticmethod
    def bits(word: np.ndarray, count: int) -> np.ndarray:
        return np.unpackbits(word.view(np.uint8), count=count,
                             bitorder="little").astype(bool)


_LANE_OPS = {"int": _IntOps, "numpy": _ArrayOps}

# Mask-aware bitwise kernels: ``m`` is the all-lanes-set word, so NOT is
# ``m ^ x``.  Written against &, |, ^ only, they work unchanged on both
# Python ints and numpy uint64 arrays.
_BITWISE: Dict[str, Callable] = {
    "INV": lambda m, a: m ^ a,
    "BUF": lambda m, a: a,
    "NAND2": lambda m, a, b: m ^ (a & b),
    "NOR2": lambda m, a, b: m ^ (a | b),
    "AND2": lambda m, a, b: a & b,
    "OR2": lambda m, a, b: a | b,
    "XOR2": lambda m, a, b: a ^ b,
    "XNOR2": lambda m, a, b: m ^ a ^ b,
    "NAND3": lambda m, a, b, c: m ^ (a & b & c),
    "NOR3": lambda m, a, b, c: m ^ (a | b | c),
    "AND3": lambda m, a, b, c: a & b & c,
    "OR3": lambda m, a, b, c: a | b | c,
    "XOR3": lambda m, a, b, c: a ^ b ^ c,
    "MUX2": lambda m, d0, d1, s: (d1 & s) | (d0 & (m ^ s)),
    "AOI21": lambda m, a, b, c: m ^ ((a & b) | c),
    "OAI21": lambda m, a, b, c: m ^ ((a | b) & c),
    "MAJ3": lambda m, a, b, c: (a & b) | (b & c) | (a & c),
    "DFF": lambda m, a: a,
    "TIE0": lambda m: m ^ m,
    # TIE1 must return a *fresh* all-ones word: aliasing the shared mask
    # array would be unsafe if a caller ever mutated a value word.
    "TIE1": lambda m: (m ^ m) | m,
}

_FN_CACHE: Dict[Cell, Callable] = {}


def _minterm_fn(cell: Cell) -> Callable:
    """Generic bitwise kernel from the cell's truth table (sum of minterms)."""
    n = cell.inputs
    minterms = [row for row in range(1 << n)
                if cell.evaluate(tuple((row >> i) & 1 for i in range(n)))]

    def fn(m, *args):
        acc = m ^ m
        for row in minterms:
            term = m
            for i, a in enumerate(args):
                term = term & (a if (row >> i) & 1 else (m ^ a))
            acc = acc | term
        return acc

    return fn


def compile_cell(cell: Cell) -> Callable:
    """Bitwise kernel for ``cell``, validated against ``cell.evaluate``.

    Hand-written kernels cover the stock library; any other cell (or a
    same-named cell whose function was overridden) falls back to a
    truth-table-derived kernel that is correct by construction.
    """
    cached = _FN_CACHE.get(cell)
    if cached is not None:
        return cached
    fn = _BITWISE.get(cell.name)
    if fn is not None:
        for row in range(1 << cell.inputs):
            args = tuple((row >> i) & 1 for i in range(cell.inputs))
            if (fn(1, *args) & 1) != cell.evaluate(args):
                fn = None
                break
    if fn is None:
        fn = _minterm_fn(cell)
    _FN_CACHE[cell] = fn
    return fn


@dataclass(frozen=True)
class BatchOutcome:
    """Per-lane DTA verdicts for one batch of input transitions.

    ``golden``/``sampled``/``bitmask`` are per-lane packed output words
    (bit ``i`` = primary output ``outputs[i]``).  ``worst_settle_ps`` is
    the per-lane latest settling time of the *final output waveform*
    (zero-width hazard pulses excluded — see DESIGN.md section 12).
    """

    outputs: Tuple[str, ...]
    golden: Tuple[int, ...]
    sampled: Tuple[int, ...]
    bitmask: Tuple[int, ...]
    worst_settle_ps: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.golden)

    @property
    def faulty(self) -> Tuple[bool, ...]:
        return tuple(mask != 0 for mask in self.bitmask)

    @property
    def error_count(self) -> int:
        return sum(1 for mask in self.bitmask if mask)

    def error_ratio(self) -> float:
        if not self.golden:
            raise ValueError("empty batch has no error ratio")
        return self.error_count / len(self.golden)


@dataclass
class BatchSimResult:
    """Raw walk output: per-primary-output lane words plus settle times."""

    final_words: List[int]
    sampled_words: List[int]
    worst_settle_ps: np.ndarray  # (count,) float64, latest output change
    gate_evals: int
    lane_mode: str


class BitParallelSimulator:
    """Levelized batch simulator over a fixed netlist and delay factor."""

    def __init__(self, netlist: Netlist, delay_factor: float = 1.0):
        if delay_factor <= 0:
            raise ValueError("delay_factor must be positive")
        self.netlist = netlist
        self.delay_factor = delay_factor
        nets = netlist.nets
        net_ids = {net: i for i, net in enumerate(nets)}
        self._n_nets = len(nets)
        self._input_ids = [net_ids[n] for n in netlist.inputs]
        self._output_ids = [net_ids[n] for n in netlist.outputs]
        # Levelized program: gates in dataflow order, nets as dense ids.
        # Delays are pre-scaled with the exact expression the event
        # simulator uses (delay_ps * factor), keeping float timestamps
        # identical between engines.
        self._gates: List[Tuple[Callable, Tuple[int, ...], int, float]] = []
        self._fanout: List[List[int]] = [[] for _ in range(len(nets))]
        for g_idx, gate in enumerate(netlist.topological_order()):
            entry = (
                compile_cell(gate.cell),
                tuple(net_ids[n] for n in gate.inputs),
                net_ids[gate.output],
                gate.delay_ps * delay_factor,
            )
            self._gates.append(entry)
            for in_id in entry[1]:
                self._fanout[in_id].append(g_idx)

    def _lane_ops(self, count: int, lane_mode: Optional[str]):
        if lane_mode is None:
            lane_mode = "int" if count <= AUTO_NUMPY_LANES else "numpy"
        try:
            return _LANE_OPS[lane_mode]
        except KeyError:
            raise ValueError(
                f"unknown lane mode {lane_mode!r}; expected 'int' or 'numpy'"
            ) from None

    def _input_lane_words(self, input_words: Sequence[int], count: int,
                          ops) -> List:
        if len(input_words) != len(self._input_ids):
            raise ValueError(
                f"expected {len(self._input_ids)} input words, "
                f"got {len(input_words)}"
            )
        return [ops.from_int(word, count) for word in input_words]

    def _settle(self, input_words: Sequence[int], count: int, ops, mask):
        """Zero-delay levelized evaluation; per-net lane words."""
        values: List = [None] * self._n_nets
        lane_words = self._input_lane_words(input_words, count, ops)
        for net_id, word in zip(self._input_ids, lane_words):
            values[net_id] = word
        for fn, in_ids, out_id, _ in self._gates:
            values[out_id] = fn(mask, *[values[i] for i in in_ids])
        return values

    def simulate_batch(self, prev_words: Sequence[int],
                       cur_words: Sequence[int], count: int,
                       sample_at: float,
                       lane_mode: Optional[str] = None) -> BatchSimResult:
        """Settle at ``prev``, transition to ``cur``, sample at ``sample_at``.

        One walk covers all ``count`` lanes; lanes are independent
        transitions exactly as if each had been simulated alone.
        """
        if count < 1:
            raise ValueError("batch must contain at least one lane")
        ops = self._lane_ops(count, lane_mode)
        mask = ops.make_mask(count)
        values = self._settle(prev_words, count, ops, mask)
        cur = self._input_lane_words(cur_words, count, ops)

        out_row = {net_id: row for row, net_id in enumerate(self._output_ids)}
        sampled = [values[i] for i in self._output_ids]
        # Times pop in ascending order, so the last write per lane is the
        # latest time any output changed in that lane.
        worst = np.zeros(count, dtype=np.float64)

        gates = self._gates
        fanout = self._fanout
        heap: List[float] = []
        pending: Dict[float, Dict[int, object]] = {}

        def schedule(time: float, net_id: int, word) -> None:
            slot = pending.get(time)
            if slot is None:
                pending[time] = slot = {}
                heapq.heappush(heap, time)
            # A net has one driver with a fixed delay, so two words can
            # never collide on the same (time, net) slot.
            slot[net_id] = word

        for net_id, new in zip(self._input_ids, cur):
            if not ops.is_zero(values[net_id] ^ new):
                schedule(0.0, net_id, new)

        evals = 0
        while heap:
            time = heapq.heappop(heap)
            updates = pending.pop(time)
            triggered: Dict[int, None] = {}
            out_changed = None
            for net_id, word in updates.items():
                changed = values[net_id] ^ word
                if ops.is_zero(changed):
                    continue
                values[net_id] = word
                row = out_row.get(net_id)
                if row is not None:
                    if time <= sample_at:
                        sampled[row] = word
                    out_changed = (changed if out_changed is None
                                   else out_changed | changed)
                for g_idx in fanout[net_id]:
                    triggered[g_idx] = None
            if out_changed is not None:
                worst[ops.bits(out_changed, count)] = time
            for g_idx in triggered:
                fn, in_ids, net_out, delay = gates[g_idx]
                schedule(time + delay, net_out,
                         fn(mask, *[values[i] for i in in_ids]))
                evals += 1

        telemetry.count("bitsim.batches")
        telemetry.count("bitsim.lanes", count)
        telemetry.count("bitsim.gate_evals", evals)
        return BatchSimResult(
            final_words=[ops.to_int(values[i]) for i in self._output_ids],
            sampled_words=[ops.to_int(w) for w in sampled],
            worst_settle_ps=worst,
            gate_evals=evals,
            lane_mode=ops.kind,
        )


def _pack_lanes(words: Sequence[int], count: int) -> Tuple[int, ...]:
    """Transpose per-output lane words into per-lane packed output ints."""
    n_out = len(words)
    if n_out == 0:
        return (0,) * count
    bits = np.stack([_IntOps.bits(w, count) for w in words])
    if n_out < 64:
        weights = np.uint64(1) << np.arange(n_out, dtype=np.uint64)
        vals = (bits.T.astype(np.uint64) * weights).sum(axis=1,
                                                        dtype=np.uint64)
        return tuple(int(v) for v in vals)
    lanes = [0] * count
    for i, word in enumerate(words):
        bit = 1 << i
        for j in np.flatnonzero(bits[i]):
            lanes[j] |= bit
    return tuple(lanes)


class BitParallelTimingAnalysis:
    """Bit-parallel two-instance DTA over a netlist (Section III.A.1).

    Verdicts (golden, sampled, fault bitmask) are bit-identical to an
    event-driven simulation of each lane; ``worst_settle_ps`` tracks
    final-waveform settling only (hazard pulses excluded), so it is <=
    an event engine's value and equal whenever no zero-width hazard
    reaches an output.
    """

    def __init__(self, netlist: Netlist, clock_ps: float,
                 delay_factor: float, lane_mode: Optional[str] = None):
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
        self.lane_mode = lane_mode
        self._sim = BitParallelSimulator(netlist, delay_factor=delay_factor)

    def analyze_batch(self, prev_words: Sequence[int],
                      cur_words: Sequence[int], *,
                      count: int) -> BatchOutcome:
        """DTA verdicts for ``count`` lanes of back-to-back transitions."""
        result = self._sim.simulate_batch(
            prev_words, cur_words, count,
            sample_at=self.clock_ps, lane_mode=self.lane_mode,
        )
        golden = _pack_lanes(result.final_words, count)
        sampled = _pack_lanes(result.sampled_words, count)
        worst = result.worst_settle_ps
        telemetry.count("dta.transitions", count)
        telemetry.observe("dta.settle_ps", float(worst.max()))
        return BatchOutcome(
            outputs=tuple(self.netlist.outputs),
            golden=golden,
            sampled=sampled,
            bitmask=tuple(g ^ s for g, s in zip(golden, sampled)),
            worst_settle_ps=tuple(worst.tolist()),
        )
