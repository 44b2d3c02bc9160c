"""Bit-identity oracle for the bit-parallel DTA walk's bookkeeping.

``BitParallelTimingAnalysis.analyze_batch`` takes its golden words from
the walk's final net words and its settle times from one per-lane
vector written at each event time.  ``_ReferenceSimulator`` below is a
frozen copy of the earlier engine: a separate zero-delay settle of
``cur`` for the golden words and an ``(n_outputs, count)`` last-change
matrix reduced with ``max(axis=0)``.  On any builder netlist, operating
point, lane count and lane mode, ``golden``, ``sampled``, ``bitmask``
and ``worst_settle_ps`` must be equal.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, List

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.circuit.bitsim import (  # noqa: E402
    AUTO_NUMPY_LANES,
    _LANE_OPS,
    BitParallelSimulator,
    BitParallelTimingAnalysis,
    compile_cell,
)
from repro.circuit.builder import (  # noqa: E402
    build_adder,
    build_lzc,
    build_multiplier,
    build_shifter,
)
from repro.circuit.sta import StaticTimingAnalysis  # noqa: E402
from repro.errors.characterize import random_vector_words  # noqa: E402
from repro.utils.rng import RngStream  # noqa: E402


# -- frozen reference implementation -------------------------------------------

class _ReferenceSimulator:
    """The earlier levelized walk: second settle pass, last-change matrix."""

    def __init__(self, netlist, delay_factor):
        nets = netlist.nets
        net_ids = {net: i for i, net in enumerate(nets)}
        self._n_nets = len(nets)
        self._input_ids = [net_ids[n] for n in netlist.inputs]
        self._output_ids = [net_ids[n] for n in netlist.outputs]
        self._gates = []
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

    def _settle(self, input_words, count, ops, mask):
        values: List = [None] * self._n_nets
        for net_id, word in zip(self._input_ids, input_words):
            values[net_id] = ops.from_int(word, count)
        for fn, in_ids, out_id, _ in self._gates:
            values[out_id] = fn(mask, *[values[i] for i in in_ids])
        return values

    def settle_output_words(self, input_words, count):
        ops = _LANE_OPS["int"]
        values = self._settle(input_words, count, ops, ops.make_mask(count))
        return [values[i] for i in self._output_ids]

    def simulate_batch(self, prev_words, cur_words, count, sample_at,
                       lane_mode):
        if lane_mode is None:
            lane_mode = "int" if count <= AUTO_NUMPY_LANES else "numpy"
        ops = _LANE_OPS[lane_mode]
        mask = ops.make_mask(count)
        values = self._settle(prev_words, count, ops, mask)

        out_row = {net_id: row for row, net_id in enumerate(self._output_ids)}
        sampled = [values[i] for i in self._output_ids]
        last_change = np.zeros((len(self._output_ids), count),
                               dtype=np.float64)
        heap: List[float] = []
        pending: Dict[float, Dict[int, object]] = {}

        def schedule(time, net_id, word):
            slot = pending.get(time)
            if slot is None:
                pending[time] = slot = {}
                heapq.heappush(heap, time)
            slot[net_id] = word

        for net_id, word in zip(self._input_ids, cur_words):
            new = ops.from_int(word, count)
            if not ops.is_zero(values[net_id] ^ new):
                schedule(0.0, net_id, new)

        while heap:
            time = heapq.heappop(heap)
            updates = pending.pop(time)
            triggered: Dict[int, None] = {}
            for net_id, word in updates.items():
                changed = values[net_id] ^ word
                if ops.is_zero(changed):
                    continue
                values[net_id] = word
                row = out_row.get(net_id)
                if row is not None:
                    if time <= sample_at:
                        sampled[row] = word
                    last_change[row][ops.bits(changed, count)] = time
                for g_idx in self._fanout[net_id]:
                    triggered[g_idx] = None
            for g_idx in triggered:
                fn, in_ids, net_out, delay = self._gates[g_idx]
                schedule(time + delay, net_out,
                         fn(mask, *[values[i] for i in in_ids]))
        return [ops.to_int(w) for w in sampled], last_change


def _reference_pack(words, count):
    lanes = [0] * count
    for i, word in enumerate(words):
        for j in range(count):
            if (word >> j) & 1:
                lanes[j] |= 1 << i
    return tuple(lanes)


def _reference_analyze(netlist, clock_ps, delay_factor, prev, cur, count,
                       lane_mode):
    """The earlier ``analyze_batch`` verdicts as plain tuples."""
    sim = _ReferenceSimulator(netlist, delay_factor)
    golden = _reference_pack(sim.settle_output_words(cur, count), count)
    sampled_words, last_change = sim.simulate_batch(
        prev, cur, count, clock_ps, lane_mode)
    sampled = _reference_pack(sampled_words, count)
    if last_change.size:
        worst = last_change.max(axis=0)
    else:
        worst = np.zeros(count, dtype=np.float64)
    return (golden, sampled, tuple(g ^ s for g, s in zip(golden, sampled)),
            tuple(float(w) for w in worst))


# -- strategies -----------------------------------------------------------------------

BUILDERS = {
    "adder8": lambda: build_adder(8),
    "adder16": lambda: build_adder(16),
    "shifter16": lambda: build_shifter(16),
    "lzc16": lambda: build_lzc(16),
    "mul5": lambda: build_multiplier(5),
    "mul8": lambda: build_multiplier(8),
}


@lru_cache(maxsize=None)
def _netlist(name):
    netlist = BUILDERS[name]()
    return netlist, StaticTimingAnalysis(netlist).critical_delay()


def _stream(netlist, count, seed):
    words = random_vector_words(netlist, count + 1,
                                RngStream(seed, "bitsim-oracle"))
    window = (1 << count) - 1
    return [w & window for w in words], [w >> 1 for w in words]


lane_counts = st.one_of(
    st.integers(1, 200),
    st.integers(AUTO_NUMPY_LANES - 70, AUTO_NUMPY_LANES + 70),
    st.integers(1, AUTO_NUMPY_LANES + 200),
)
cases = st.tuples(
    st.sampled_from(sorted(BUILDERS)),
    st.floats(1.0, 1.7),
    st.sampled_from([0.6, 0.8, 0.9, 1.0, 1.2]),
    lane_counts,
    st.sampled_from([None, "int", "numpy"]),
    st.integers(0, 2**16),
)


class TestAgainstFrozenEngine:
    @given(cases)
    @settings(max_examples=60, deadline=None)
    def test_verdicts_and_settle_times_equal(self, case):
        name, factor, clock_scale, count, lane_mode, seed = case
        netlist, critical = _netlist(name)
        clock = critical * clock_scale
        prev, cur = _stream(netlist, count, seed)
        got = BitParallelTimingAnalysis(
            netlist, clock_ps=clock, delay_factor=factor,
            lane_mode=lane_mode).analyze_batch(prev, cur, count=count)
        golden, sampled, bitmask, worst = _reference_analyze(
            netlist, clock, factor, prev, cur, count, lane_mode)
        assert got.golden == golden
        assert got.sampled == sampled
        assert got.bitmask == bitmask
        assert got.worst_settle_ps == worst

    @given(cases)
    @settings(max_examples=60, deadline=None)
    def test_final_words_are_the_settled_cur_state(self, case):
        """The walk ends on the zero-delay settle of ``cur``."""
        name, factor, clock_scale, count, lane_mode, seed = case
        netlist, critical = _netlist(name)
        prev, cur = _stream(netlist, count, seed)
        sim = BitParallelSimulator(netlist, delay_factor=factor)
        result = sim.simulate_batch(prev, cur, count,
                                    sample_at=critical * clock_scale,
                                    lane_mode=lane_mode)
        reference = _ReferenceSimulator(netlist, factor)
        assert result.final_words == reference.settle_output_words(cur, count)
        assert result.worst_settle_ps.shape == (count,)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("lane_mode", ["int", "numpy"])
    def test_every_netlist_past_the_int_width(self, name, lane_mode):
        netlist, critical = _netlist(name)
        count = AUTO_NUMPY_LANES + 1
        prev, cur = _stream(netlist, count, seed=7)
        got = BitParallelTimingAnalysis(
            netlist, clock_ps=critical, delay_factor=1.4,
            lane_mode=lane_mode).analyze_batch(prev, cur, count=count)
        golden, sampled, bitmask, worst = _reference_analyze(
            netlist, critical, 1.4, prev, cur, count, lane_mode)
        assert (got.golden, got.sampled, got.bitmask,
                got.worst_settle_ps) == (golden, sampled, bitmask, worst)
