"""Tests for the event-driven reference simulator and its DTA."""

import random

import pytest

from repro.circuit.builder import build_adder, build_multiplier
from repro.circuit.sdf import annotate_interconnect
from repro.circuit.sta import StaticTimingAnalysis

from tests.circuit.event_reference import (
    DynamicTimingAnalysis,
    EventSimulator,
    bus_values,
    outcome,
    pack_input_words,
    stream_words,
)
from tests.utils.scalar_oracles import longest_carry_chain


def _adder_inputs(width, a, b):
    return {**bus_values("a", width, a), **bus_values("b", width, b)}


def _analyze_pair(dta, previous, current):
    """One transition through the primary batch API (a batch of one)."""
    prev_words = pack_input_words(dta.netlist, [previous])
    cur_words = pack_input_words(dta.netlist, [current])
    return outcome(dta.analyze_batch(prev_words, cur_words, count=1), 0)


@pytest.fixture(scope="module")
def adder8():
    netlist = build_adder(8)
    annotate_interconnect(netlist)
    return netlist


@pytest.fixture(scope="module")
def mul5():
    netlist = build_multiplier(5)
    annotate_interconnect(netlist)
    return netlist


class TestEventSimulator:
    def test_settles_to_functional_value(self, adder8):
        sim = EventSimulator(adder8)
        result = sim.simulate(_adder_inputs(8, 0, 0), _adder_inputs(8, 77, 88))
        expected = adder8.evaluate(_adder_inputs(8, 77, 88))
        assert result.final_values == expected

    def test_no_transition_no_events(self, adder8):
        sim = EventSimulator(adder8)
        inputs = _adder_inputs(8, 10, 20)
        result = sim.simulate(inputs, inputs)
        assert result.events_processed == 0

    def test_settle_time_bounded_by_sta(self, adder8):
        sim = EventSimulator(adder8)
        sta_bound = StaticTimingAnalysis(adder8).critical_delay()
        result = sim.simulate(_adder_inputs(8, 0, 0),
                              _adder_inputs(8, 255, 1))
        worst = max(result.settle_times.values())
        assert worst <= sta_bound + 1e-9

    def test_sampling_after_settle_is_final(self, adder8):
        sim = EventSimulator(adder8)
        result = sim.simulate(_adder_inputs(8, 0, 0),
                              _adder_inputs(8, 255, 1))
        late_clock = max(result.settle_times.values()) + 1.0
        sampled = result.sampled_outputs(late_clock)
        assert all(sampled[n] == result.final_values[n] for n in sampled)
        assert not any(result.timing_error_bits(late_clock).values())

    def test_sampling_too_early_misses_ripple(self, adder8):
        """The carry ripple of 255 + 1 cannot finish by a tiny clock."""
        sim = EventSimulator(adder8)
        result = sim.simulate(_adder_inputs(8, 0, 0),
                              _adder_inputs(8, 255, 1))
        errors = result.timing_error_bits(100.0)
        assert any(errors.values())

    def test_scaled_delays_settle_later(self, adder8):
        nominal = EventSimulator(adder8, delay_factor=1.0)
        scaled = EventSimulator(adder8, delay_factor=1.5)
        prev, cur = _adder_inputs(8, 0, 0), _adder_inputs(8, 255, 1)
        t_nom = max(nominal.simulate(prev, cur).settle_times.values())
        t_scaled = max(scaled.simulate(prev, cur).settle_times.values())
        assert t_scaled == pytest.approx(1.5 * t_nom)

    def test_missing_input_rejected(self, adder8):
        sim = EventSimulator(adder8)
        with pytest.raises(ValueError, match="missing final value"):
            sim.simulate(_adder_inputs(8, 0, 0), {"a[0]": 1})

    def test_event_budget_guard(self, adder8):
        sim = EventSimulator(adder8)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.simulate(_adder_inputs(8, 0, 0), _adder_inputs(8, 255, 255),
                         max_events=3)

    def test_invalid_delay_factor(self, adder8):
        with pytest.raises(ValueError):
            EventSimulator(adder8, delay_factor=-1.0)


class TestDta:
    def test_nominal_design_meets_timing(self, adder8):
        clock = StaticTimingAnalysis(adder8).critical_delay()
        dta = DynamicTimingAnalysis(adder8, clock_ps=clock, delay_factor=1.2)
        assert dta.verify_nominal(_adder_inputs(8, 0, 0),
                                  _adder_inputs(8, 255, 1))

    def test_golden_equals_functional(self, adder8):
        clock = StaticTimingAnalysis(adder8).critical_delay()
        dta = DynamicTimingAnalysis(adder8, clock_ps=clock, delay_factor=1.4)
        outcome = _analyze_pair(dta, _adder_inputs(8, 0, 0),
                                _adder_inputs(8, 200, 100))
        assert outcome.golden & 0x1FF == (300 & 0x1FF)

    def test_bitmask_is_golden_xor_sampled(self, adder8):
        clock = StaticTimingAnalysis(adder8).critical_delay()
        dta = DynamicTimingAnalysis(adder8, clock_ps=clock, delay_factor=1.6)
        outcome = _analyze_pair(dta, _adder_inputs(8, 0, 0),
                                _adder_inputs(8, 255, 1))
        assert outcome.bitmask == outcome.golden ^ outcome.sampled

    def test_long_chains_fail_first(self, adder8):
        """Data dependence: scaled delays break long ripples, not short."""
        clock = StaticTimingAnalysis(adder8).critical_delay()
        dta = DynamicTimingAnalysis(adder8, clock_ps=clock, delay_factor=1.5)
        long_chain = _analyze_pair(dta, _adder_inputs(8, 0, 0),
                                   _adder_inputs(8, 255, 1))
        short_chain = _analyze_pair(dta, _adder_inputs(8, 0, 0),
                                    _adder_inputs(8, 16, 2))
        assert long_chain.faulty
        assert not short_chain.faulty

    def test_error_ratio_grows_with_delay_factor(self, mul5):
        clock = StaticTimingAnalysis(mul5).critical_delay()
        rnd = random.Random(3)
        vectors = []
        for _ in range(60):
            vectors.append({**bus_values("a", 5, rnd.randrange(32)),
                            **bus_values("b", 5, rnd.randrange(32))})
        prev_words, cur_words, count = stream_words(mul5, vectors)

        def ratio(factor):
            dta = DynamicTimingAnalysis(mul5, clock, factor)
            batch = dta.analyze_batch(prev_words, cur_words, count=count)
            return batch.error_ratio()

        mild, harsh = ratio(1.15), ratio(1.45)
        assert harsh >= mild
        assert harsh > 0.0

    def test_rejects_speedup_factor(self, adder8):
        with pytest.raises(ValueError):
            DynamicTimingAnalysis(adder8, clock_ps=100.0, delay_factor=0.9)

    def test_rejects_bad_clock(self, adder8):
        with pytest.raises(ValueError):
            DynamicTimingAnalysis(adder8, clock_ps=0.0, delay_factor=1.2)

    def test_flipped_bits_counts_mask(self, adder8):
        clock = StaticTimingAnalysis(adder8).critical_delay()
        dta = DynamicTimingAnalysis(adder8, clock, 1.6)
        outcome = _analyze_pair(dta, _adder_inputs(8, 0, 0),
                                _adder_inputs(8, 255, 1))
        assert outcome.flipped_bits == bin(outcome.bitmask).count("1")


class TestMacroModelCalibration:
    """Gate-level grounding of the FPU macro-timing model's core premise:
    failure onset is ordered by carry-chain length, and the failing-chain
    threshold shrinks as delays grow."""

    def _failing_threshold(self, netlist, clock, factor):
        dta = DynamicTimingAnalysis(netlist, clock, factor)
        zeros = _adder_inputs(8, 0, 0)
        threshold = None
        for chain in range(1, 9):
            a, b = 1, (1 << chain) - 1  # carry chain of exactly `chain`
            verdict = _analyze_pair(dta, zeros, _adder_inputs(8, a, b))
            assert longest_carry_chain(a, b, 8) == chain
            if verdict.faulty and threshold is None:
                threshold = chain
        return threshold

    def test_threshold_decreases_with_voltage(self, adder8):
        clock = StaticTimingAnalysis(adder8).critical_delay()
        mild = self._failing_threshold(adder8, clock, 1.25)
        harsh = self._failing_threshold(adder8, clock, 1.60)
        assert harsh is not None
        if mild is not None:
            assert harsh <= mild
