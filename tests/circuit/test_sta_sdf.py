"""Tests for static timing analysis and interconnect annotation."""

import pytest

from repro.circuit.builder import build_adder, build_multiplier
from repro.circuit.cells import LIBRARY
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import (
    annotate_interconnect,
    BASE_WIRE_DELAY_PS,
    FANOUT_DELAY_PS,
)
from repro.circuit.sta import (
    StaticTimingAnalysis,
    clock_period,
    path_distribution,
)


def _chain_netlist(depth):
    """INV chain of given depth: one path, hand-computable delay."""
    netlist = Netlist("chain")
    netlist.add_input("in")
    previous = "in"
    for i in range(depth):
        net = f"n{i}"
        netlist.add_gate("INV", [previous], net)
        previous = net
    netlist.mark_output(previous)
    return netlist


class TestArrivalTimes:
    def test_inverter_chain_delay(self):
        netlist = _chain_netlist(5)
        sta = StaticTimingAnalysis(netlist)
        assert sta.critical_delay() == pytest.approx(
            5 * LIBRARY["INV"].delay_ps
        )

    def test_delay_factor_scales_linearly(self):
        netlist = _chain_netlist(3)
        base = StaticTimingAnalysis(netlist).critical_delay()
        scaled = StaticTimingAnalysis(netlist, delay_factor=1.3)
        assert scaled.critical_delay() == pytest.approx(1.3 * base)

    def test_invalid_delay_factor(self):
        with pytest.raises(ValueError):
            StaticTimingAnalysis(_chain_netlist(1), delay_factor=0.0)

    def test_diamond_takes_worst_branch(self):
        netlist = Netlist("diamond")
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "fast")
        netlist.add_gate("XOR2", ["a", "a"], "slow1")
        netlist.add_gate("XOR2", ["slow1", "a"], "slow2")
        netlist.add_gate("AND2", ["fast", "slow2"], "out")
        netlist.mark_output("out")
        sta = StaticTimingAnalysis(netlist)
        expected = 2 * LIBRARY["XOR2"].delay_ps + LIBRARY["AND2"].delay_ps
        assert sta.critical_delay() == pytest.approx(expected)


class TestPathEnumeration:
    def test_longest_paths_sorted_and_counted(self):
        netlist = build_adder(8)
        paths = StaticTimingAnalysis(netlist).longest_paths(50)
        assert len(paths) == 50
        delays = [p.delay_ps for p in paths]
        assert delays == sorted(delays, reverse=True)

    def test_first_path_is_critical(self):
        netlist = build_adder(6)
        sta = StaticTimingAnalysis(netlist)
        top = sta.longest_paths(1)[0]
        assert top.delay_ps == pytest.approx(sta.critical_delay())

    def test_k_zero(self):
        assert StaticTimingAnalysis(build_adder(4)).longest_paths(0) == []

    def test_path_slack(self):
        netlist = _chain_netlist(2)
        path = StaticTimingAnalysis(netlist).longest_paths(1)[0]
        assert path.slack(1000.0) == pytest.approx(1000.0 - path.delay_ps)


class TestClockPeriod:
    def test_eq1_takes_worst_stage(self):
        fast = _chain_netlist(2)
        slow = _chain_netlist(10)
        assert clock_period([fast, slow]) == pytest.approx(
            StaticTimingAnalysis(slow).critical_delay()
        )

    def test_margin_guardband(self):
        stage = _chain_netlist(4)
        base = clock_period([stage])
        assert clock_period([stage], margin=0.1) == pytest.approx(1.1 * base)

    def test_path_distribution_merges_and_tags(self):
        a = build_adder(6, name="stage_a")
        m = build_multiplier(5, name="stage_m")
        paths = path_distribution([a, m], 30)
        assert len(paths) == 30
        stages = {p.stage for p in paths}
        assert stages <= {"stage_a", "stage_m"}
        # Multiplier paths dominate: deeper structure.
        assert all(p.stage == "stage_m" for p in paths[:5])


class TestSdf:
    def test_annotation_deterministic(self):
        n1 = build_adder(8)
        n2 = build_adder(8)
        sdf1 = annotate_interconnect(n1, seed=3)
        sdf2 = annotate_interconnect(n2, seed=3)
        assert sdf1 == sdf2

    def test_different_seed_different_placement(self):
        n1 = build_adder(8)
        n2 = build_adder(8)
        assert annotate_interconnect(n1, seed=1) != (
            annotate_interconnect(n2, seed=2)
        )

    def test_wire_delay_nonnegative_and_fanout_loaded(self):
        netlist = build_adder(8)
        sdf = annotate_interconnect(netlist)
        assert all(v >= 0.0 for v in sdf.values())
        fanout = netlist.fanout()
        heavy = max(sdf, key=lambda n: len(fanout.get(n, [])))
        assert sdf[heavy] >= BASE_WIRE_DELAY_PS

    def test_annotation_increases_delay(self):
        netlist = build_adder(8)
        before = StaticTimingAnalysis(netlist).critical_delay()
        annotate_interconnect(netlist)
        after = StaticTimingAnalysis(netlist).critical_delay()
        assert after > before
