"""Tests for the netlist container: validation, topology, evaluation."""

import pytest

from repro.circuit.netlist import Netlist


def _half_adder_netlist():
    netlist = Netlist("ha")
    netlist.add_inputs(["a", "b"])
    netlist.add_gate("XOR2", ["a", "b"], "sum")
    netlist.add_gate("AND2", ["a", "b"], "carry")
    netlist.mark_outputs(["sum", "carry"])
    return netlist


class TestConstruction:
    def test_duplicate_input_rejected(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_input("a")

    def test_duplicate_driver_rejected(self):
        netlist = Netlist("n")
        netlist.add_inputs(["a", "b"])
        netlist.add_gate("AND2", ["a", "b"], "x")
        with pytest.raises(ValueError):
            netlist.add_gate("OR2", ["a", "b"], "x")

    def test_driving_an_input_rejected(self):
        netlist = Netlist("n")
        netlist.add_inputs(["a", "b"])
        with pytest.raises(ValueError):
            netlist.add_gate("AND2", ["a", "b"], "a")

    def test_arity_checked(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_gate("AND2", ["a"], "x")

    def test_undriven_output_rejected(self):
        netlist = Netlist("n")
        with pytest.raises(ValueError):
            netlist.mark_output("ghost")

    def test_mark_output_idempotent(self):
        netlist = _half_adder_netlist()
        netlist.mark_output("sum")
        assert netlist.outputs.count("sum") == 1


class TestValidation:
    def test_valid_netlist_passes(self):
        _half_adder_netlist().validate()

    def test_undriven_read_detected(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate("AND2", ["a", "phantom"], "x")
        with pytest.raises(ValueError, match="no driver"):
            netlist.validate()

    def test_combinational_loop_detected(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate("AND2", ["a", "y"], "x")
        netlist.add_gate("OR2", ["a", "x"], "y")
        with pytest.raises(ValueError, match="loop"):
            netlist.validate()


class TestTopologyAndEvaluation:
    def test_topological_order_respects_dataflow(self):
        netlist = Netlist("n")
        netlist.add_inputs(["a", "b"])
        netlist.add_gate("AND2", ["a", "b"], "x", name="g_and")
        netlist.add_gate("INV", ["x"], "y", name="g_inv")
        order = [g.name for g in netlist.topological_order()]
        assert order.index("g_and") < order.index("g_inv")

    def test_half_adder_truth_table(self):
        netlist = _half_adder_netlist()
        for a in (0, 1):
            for b in (0, 1):
                out = netlist.evaluate({"a": a, "b": b})
                assert out["sum"] == a ^ b
                assert out["carry"] == a & b

    def test_missing_input_value(self):
        netlist = _half_adder_netlist()
        with pytest.raises(ValueError, match="missing value"):
            netlist.evaluate({"a": 1})

    def test_values_masked_to_one_bit(self):
        netlist = _half_adder_netlist()
        out = netlist.evaluate({"a": 3, "b": 1})
        assert out["sum"] == 0 and out["carry"] == 1

    def test_tie_cells_evaluate_without_inputs(self):
        netlist = Netlist("n")
        netlist.add_gate("TIE1", [], "one")
        netlist.add_gate("INV", ["one"], "zero")
        netlist.mark_outputs(["zero"])
        assert netlist.evaluate({})["zero"] == 0

    def test_fanout_map(self):
        netlist = _half_adder_netlist()
        fanout = netlist.fanout()
        assert len(fanout["a"]) == 2
        assert fanout["sum"] == []

    def test_stats(self):
        stats = _half_adder_netlist().stats()
        assert stats["_total"] == 2
        assert stats["XOR2"] == 1
        assert stats["_inputs"] == 2
        assert stats["_outputs"] == 2

    def test_nets_unique_ordered(self):
        netlist = _half_adder_netlist()
        nets = netlist.nets
        assert len(nets) == len(set(nets)) == 4
