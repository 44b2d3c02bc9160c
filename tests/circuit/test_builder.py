"""Tests for the datapath generators: functional correctness of every block."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.builder import (
    NetlistBuilder,
    build_adder,
    build_lzc,
    build_multiplier,
    build_shifter,
)

from tests.circuit.event_reference import bus_values


def _read_bus(netlist, values, nets):
    word = 0
    for i, net in enumerate(nets):
        if values[net]:
            word |= 1 << i
    return word


def _run_adder(netlist, width, a, b):
    inputs = {}
    inputs.update(bus_values("a", width, a))
    inputs.update(bus_values("b", width, b))
    values = netlist.evaluate(inputs)
    sums = netlist.outputs[:width]
    cout = netlist.outputs[width]
    return _read_bus(values, values, sums), values[cout]


class TestAdders:
    @pytest.mark.parametrize("kind", ["ripple", "carry_select"])
    def test_exhaustive_4bit(self, kind):
        netlist = build_adder(4, kind=kind)
        for a in range(16):
            for b in range(16):
                total, cout = _run_adder(netlist, 4, a, b)
                assert total == (a + b) & 0xF
                assert cout == (a + b) >> 4

    @pytest.mark.parametrize("kind", ["ripple", "carry_select"])
    @given(a=st.integers(0, 2**24 - 1), b=st.integers(0, 2**24 - 1))
    @settings(max_examples=30, deadline=None)
    def test_wide_random(self, kind, a, b):
        netlist = _ADDERS[kind]
        total, cout = _run_adder(netlist, 24, a, b)
        assert total == (a + b) & (2**24 - 1)
        assert cout == (a + b) >> 24

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_adder(8, kind="wallace")

    def test_width_mismatch(self):
        builder = NetlistBuilder("w")
        a = builder.inputs("a", 4)
        b = builder.inputs("b", 3)
        with pytest.raises(ValueError):
            builder.ripple_adder(a, b)


# Shared instances so hypothesis examples reuse one netlist.
_ADDERS = {
    "ripple": build_adder(24, kind="ripple"),
    "carry_select": build_adder(24, kind="carry_select"),
}


class TestSubtractorIncrementerComparators:
    def test_subtractor(self):
        builder = NetlistBuilder("sub")
        a = builder.inputs("a", 8)
        b = builder.inputs("b", 8)
        diff, no_borrow = builder.subtractor(a, b)
        builder.outputs(diff)
        builder.outputs([no_borrow])
        netlist = builder.build()
        for x, y in [(200, 100), (100, 200), (5, 5), (255, 0), (0, 255)]:
            inputs = {**bus_values("a", 8, x), **bus_values("b", 8, y)}
            values = netlist.evaluate(inputs)
            assert _read_bus(values, values, netlist.outputs[:8]) == (
                (x - y) & 0xFF
            )
            assert values[netlist.outputs[8]] == int(x >= y)

    def test_incrementer(self):
        builder = NetlistBuilder("inc")
        a = builder.inputs("a", 8)
        out, cout = builder.incrementer(a)
        builder.outputs(out)
        builder.outputs([cout])
        netlist = builder.build()
        for x in (0, 1, 127, 254, 255):
            values = netlist.evaluate(bus_values("a", 8, x))
            assert _read_bus(values, values, netlist.outputs[:8]) == (
                (x + 1) & 0xFF
            )
            assert values[netlist.outputs[8]] == int(x == 255)


class TestShifters:
    @pytest.mark.parametrize("direction", ["right", "left"])
    def test_all_amounts(self, direction):
        width = 16
        netlist = build_shifter(width, direction=direction)
        data = 0b1011_0010_1100_0101
        for amount in range(width):
            inputs = {**bus_values("d", width, data),
                      **bus_values("sh", 4, amount)}
            values = netlist.evaluate(inputs)
            got = _read_bus(values, values, netlist.outputs[:width])
            if direction == "right":
                expected = data >> amount
            else:
                expected = (data << amount) & (2**width - 1)
            assert got == expected, f"amount={amount}"


class TestLzc:
    @pytest.mark.parametrize("width", [8, 16, 24])
    def test_counts(self, width):
        netlist = build_lzc(width)
        out_bits = netlist.outputs
        for position in range(width):
            data = 1 << position
            values = netlist.evaluate(bus_values("d", width, data))
            count = _read_bus(values, values, out_bits)
            # Saturation bit (MSB of result) clear, count = leading zeros.
            assert count == width - 1 - position

    def test_all_zero_saturates(self):
        netlist = build_lzc(8)
        values = netlist.evaluate(bus_values("d", 8, 0))
        count = _read_bus(values, values, netlist.outputs)
        assert count & (1 << (len(netlist.outputs) - 1))


class TestMultiplier:
    def test_exhaustive_4x4(self):
        netlist = build_multiplier(4)
        for a in range(16):
            for b in range(16):
                inputs = {**bus_values("a", 4, a), **bus_values("b", 4, b)}
                values = netlist.evaluate(inputs)
                assert _read_bus(values, values, netlist.outputs) == a * b

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_random_8x8(self, a, b):
        values = _MUL8.evaluate(
            {**bus_values("a", 8, a), **bus_values("b", 8, b)}
        )
        assert _read_bus(values, values, _MUL8.outputs) == a * b


_MUL8 = build_multiplier(8)


class TestDecoderAndMisc:
    def test_decoder_one_hot(self):
        builder = NetlistBuilder("dec")
        sel = builder.inputs("s", 3)
        outputs = builder.decoder(sel)
        builder.outputs(outputs)
        netlist = builder.build()
        for value in range(8):
            values = netlist.evaluate(bus_values("s", 3, value))
            word = _read_bus(values, values, netlist.outputs)
            assert word == 1 << value

    def test_reduce_tree_empty_raises(self):
        builder = NetlistBuilder("r")
        with pytest.raises(ValueError):
            builder.reduce_tree("AND2", [])

    def test_const_nets_cached(self):
        builder = NetlistBuilder("c")
        assert builder.const(0) == builder.const(0)
        assert builder.const(1) == builder.const(1)
        assert builder.const(0) != builder.const(1)
