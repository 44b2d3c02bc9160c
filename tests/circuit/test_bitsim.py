"""Cross-backend differential suite: event reference vs bit-parallel DTA.

The event engine lives in ``tests/circuit/event_reference.py``.

The bit-parallel engine's contract (DESIGN.md section 12) is *verdict
bit-identity*: on any packed vector batch, ``golden`` / ``sampled`` /
``bitmask`` — and hence every fault verdict — must equal the
event-driven reference exactly, lane for lane.  ``worst_settle_ps`` is
the one documented divergence: the batch engine tracks final-waveform
settling only, while the event simulator also stamps zero-width hazard
glitches, so the bit-parallel figure is less than or equal to the
reference's, never greater.
"""

import numpy as np
import pytest

from repro.circuit.bitsim import (
    BitParallelSimulator,
    BitParallelTimingAnalysis,
    compile_cell,
)
from repro.circuit.builder import (
    build_adder,
    build_lzc,
    build_multiplier,
    build_shifter,
)
from repro.circuit.cells import LIBRARY, Cell
from repro.circuit.sta import StaticTimingAnalysis
from repro.errors.characterize import random_vector_words
from repro.utils.rng import RngStream

from tests.circuit.event_reference import (
    DynamicTimingAnalysis,
    bus_values,
    outcome,
    outcomes,
    pack_input_words,
    stream_words,
    unpack_input_words,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    HAVE_HYPOTHESIS = False

#: (delay_factor, clock scale relative to the critical delay) — a mild
#: point, a harsh one, and an under-clocked one so all fault densities
#: from near-zero to heavy are exercised.
OPERATING_POINTS = [(1.3, 1.0), (1.6, 1.0), (1.2, 0.8)]

BUILDERS = {
    "adder8": lambda: build_adder(8),
    "mul5": lambda: build_multiplier(5),
    "shifter8": lambda: build_shifter(8),
    "lzc8": lambda: build_lzc(8),
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def netlist(request):
    return BUILDERS[request.param]()


def _random_stream(netlist, lanes, seed=17):
    """Packed prev/cur transition words over a uniform random stream."""
    rng = RngStream(seed, f"bitsim-diff/{netlist.name}")
    words = random_vector_words(netlist, lanes + 1, rng)
    window = (1 << lanes) - 1
    prev = [w & window for w in words]
    cur = [w >> 1 for w in words]
    return prev, cur


def _engines(netlist, factor, clock_scale):
    clock = StaticTimingAnalysis(netlist).critical_delay() * clock_scale
    event = DynamicTimingAnalysis(netlist, clock_ps=clock,
                                  delay_factor=factor)
    fast = BitParallelTimingAnalysis(netlist, clock_ps=clock,
                                     delay_factor=factor)
    return event, fast


def assert_verdicts_identical(event, fast):
    assert event.outputs == fast.outputs
    assert event.golden == fast.golden
    assert event.sampled == fast.sampled
    assert event.bitmask == fast.bitmask
    assert event.faulty == fast.faulty
    assert event.error_count == fast.error_count
    for slow_ps, fast_ps in zip(event.worst_settle_ps,
                                fast.worst_settle_ps):
        assert fast_ps <= slow_ps + 1e-9


class TestDifferential:
    @pytest.mark.parametrize("factor,clock_scale", OPERATING_POINTS)
    def test_batch_verdicts_bit_identical(self, netlist, factor,
                                          clock_scale):
        event_dta, fast_dta = _engines(netlist, factor, clock_scale)
        prev, cur = _random_stream(netlist, lanes=96)
        event = event_dta.analyze_batch(prev, cur, count=96)
        fast = fast_dta.analyze_batch(prev, cur, count=96)
        assert_verdicts_identical(event, fast)

    def test_outcome_objects_match_event_reference(self, netlist):
        """Per-lane DtaOutcome views equal the scalar reference path."""
        event_dta, fast_dta = _engines(netlist, 1.6, 1.0)
        prev, cur = _random_stream(netlist, lanes=16, seed=23)
        fast = fast_dta.analyze_batch(prev, cur, count=16)
        for lane, got in enumerate(outcomes(fast)):
            reference = outcome(event_dta.analyze_batch(
                [(w >> lane) & 1 for w in prev],
                [(w >> lane) & 1 for w in cur], count=1), 0)
            assert got.golden == reference.golden
            assert got.sampled == reference.sampled
            assert got.bitmask == reference.bitmask
            assert got.faulty == reference.faulty


if HAVE_HYPOTHESIS:
    ADDER8 = build_adder(8)
    ADDER8_CLOCK = StaticTimingAnalysis(ADDER8).critical_delay()

    class TestDifferentialProperty:
        @given(st.lists(st.tuples(st.integers(0, 255),
                                  st.integers(0, 255)),
                        min_size=2, max_size=24),
               st.sampled_from([1.2, 1.4, 1.7]))
        @settings(max_examples=40)
        def test_any_stream_bit_identical(self, pairs, factor):
            vectors = [{**bus_values("a", 8, a), **bus_values("b", 8, b)}
                       for a, b in pairs]
            prev, cur, count = stream_words(ADDER8, vectors)
            event = DynamicTimingAnalysis(
                ADDER8, clock_ps=ADDER8_CLOCK, delay_factor=factor,
            ).analyze_batch(prev, cur, count=count)
            fast = BitParallelTimingAnalysis(
                ADDER8, clock_ps=ADDER8_CLOCK, delay_factor=factor,
            ).analyze_batch(prev, cur, count=count)
            assert_verdicts_identical(event, fast)

        @given(st.integers(0, (1 << 16) - 1), st.integers(1, 64))
        @settings(max_examples=40)
        def test_pack_unpack_roundtrip(self, seed_bits, count):
            rng = RngStream(seed_bits, "bitsim-roundtrip")
            vectors = [
                {net: int(bit) for net, bit in
                 zip(ADDER8.inputs,
                     rng.integers(0, 2, size=len(ADDER8.inputs)))}
                for _ in range(count)
            ]
            words = pack_input_words(ADDER8, vectors)
            assert unpack_input_words(ADDER8, words, count) == vectors


class TestLaneModes:
    def test_int_and_numpy_lanes_identical(self, netlist):
        clock = StaticTimingAnalysis(netlist).critical_delay()
        prev, cur = _random_stream(netlist, lanes=96, seed=31)
        results = {}
        for mode in ("int", "numpy"):
            dta = BitParallelTimingAnalysis(netlist, clock_ps=clock,
                                            delay_factor=1.6,
                                            lane_mode=mode)
            results[mode] = dta.analyze_batch(prev, cur, count=96)
        assert results["int"].golden == results["numpy"].golden
        assert results["int"].sampled == results["numpy"].sampled
        assert results["int"].bitmask == results["numpy"].bitmask
        assert results["int"].worst_settle_ps == (
            results["numpy"].worst_settle_ps)

    def test_unknown_lane_mode_rejected(self, netlist):
        sim = BitParallelSimulator(netlist)
        prev, cur = _random_stream(netlist, lanes=2)
        with pytest.raises(ValueError, match="lane mode"):
            sim.simulate_batch(prev, cur, count=2, sample_at=100.0,
                               lane_mode="simd")


class TestSimulatorInvariants:
    def test_settle_matches_functional_evaluation(self, netlist):
        """Golden words equal the netlist's functional output, per lane."""
        sim = BitParallelSimulator(netlist)
        prev, cur = _random_stream(netlist, lanes=32, seed=41)
        golden_words = sim.simulate_batch(prev, cur, 32,
                                          sample_at=0.0).final_words
        vectors = unpack_input_words(netlist, cur, 32)
        for lane in range(32):
            expected = netlist.evaluate(vectors[lane])
            for out_pos, net in enumerate(netlist.outputs):
                assert (golden_words[out_pos] >> lane) & 1 == expected[net]

    def test_empty_batch_rejected(self, netlist):
        dta = BitParallelTimingAnalysis(netlist, clock_ps=100.0,
                                        delay_factor=1.2)
        with pytest.raises(ValueError):
            dta.analyze_batch([0] * len(netlist.inputs),
                              [0] * len(netlist.inputs), count=0)

    def test_validation_matches_event_engine(self, netlist):
        with pytest.raises(ValueError):
            BitParallelTimingAnalysis(netlist, clock_ps=0.0,
                                      delay_factor=1.2)
        with pytest.raises(ValueError):
            BitParallelTimingAnalysis(netlist, clock_ps=100.0,
                                      delay_factor=0.9)


class TestCompiledCells:
    def test_every_library_cell_matches_scalar_semantics(self):
        for cell in LIBRARY:
            fn = compile_cell(cell)
            for row in range(1 << cell.inputs):
                bits = tuple((row >> i) & 1 for i in range(cell.inputs))
                assert fn(1, *bits) == cell.evaluate(bits), cell.name

    def test_mismatched_hand_kernel_falls_back_to_minterms(self):
        # Claims the INV name but computes BUF: the compile-time
        # validation must reject the hand kernel and fall back to the
        # truth-table expansion, which is always faithful.
        impostor = Cell(name="INV", inputs=1,
                        function=lambda v: v[0], delay_ps=10.0)
        fn = compile_cell(impostor)
        assert fn(1, 0) == 0
        assert fn(1, 1) == 1

    def test_multibit_masks_stay_lane_independent(self):
        cell = LIBRARY["XOR3"]
        fn = compile_cell(cell)
        mask = (1 << 8) - 1
        a, b, c = 0b10110010, 0b01110100, 0b11011000
        assert fn(mask, a, b, c) == (a ^ b ^ c) & mask

