"""Tests for the FPU facade and formats module."""

import numpy as np
import pytest

from repro.circuit.liberty import NOMINAL, VR15, VR20
from repro.fpu import ops
from repro.fpu.formats import (
    ALL_OPS,
    OPS_DOUBLE,
    OPS_SINGLE,
    FpOp,
    op_by_mnemonic,
)
from repro.fpu.unit import FPU
from repro.utils.ieee754 import (
    DOUBLE,
    SINGLE,
    float_to_bits64,
    floats_to_bits64,
)


class TestFormats:
    def test_twelve_instructions(self):
        assert len(ALL_OPS) == 12
        assert len(OPS_DOUBLE) == len(OPS_SINGLE) == 6

    def test_kinds(self):
        assert FpOp.MUL_D.kind == "mul"
        assert FpOp.I2F_S.kind == "i2f"
        assert FpOp.F2I_D.kind == "f2i"

    def test_precision_and_fmt(self):
        assert FpOp.ADD_D.is_double and FpOp.ADD_D.fmt.width == 64
        assert not FpOp.ADD_S.is_double and FpOp.ADD_S.fmt.width == 32

    def test_operand_count(self):
        assert FpOp.DIV_D.has_two_operands
        assert not FpOp.I2F_D.has_two_operands

    def test_latency_classes(self):
        assert FpOp.DIV_D.latency_cycles > FpOp.MUL_D.latency_cycles
        assert FpOp.MUL_D.latency_cycles > FpOp.I2F_D.latency_cycles

    #: (kind, precision, fmt width, is_double, has_two_operands,
    #: latency_cycles) for every instruction.
    PROPERTIES = {
        FpOp.ADD_D: ("add", "double", 64, True, True, 6),
        FpOp.SUB_D: ("sub", "double", 64, True, True, 6),
        FpOp.MUL_D: ("mul", "double", 64, True, True, 7),
        FpOp.DIV_D: ("div", "double", 64, True, True, 24),
        FpOp.I2F_D: ("i2f", "double", 64, True, False, 3),
        FpOp.F2I_D: ("f2i", "double", 64, True, False, 3),
        FpOp.ADD_S: ("add", "single", 32, False, True, 6),
        FpOp.SUB_S: ("sub", "single", 32, False, True, 6),
        FpOp.MUL_S: ("mul", "single", 32, False, True, 7),
        FpOp.DIV_S: ("div", "single", 32, False, True, 24),
        FpOp.I2F_S: ("i2f", "single", 32, False, False, 3),
        FpOp.F2I_S: ("f2i", "single", 32, False, False, 3),
    }

    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
    def test_properties_pinned(self, op):
        assert (op.kind, op.fmt.name, op.fmt.width, op.is_double,
                op.has_two_operands, op.latency_cycles) == \
            self.PROPERTIES[op]
        assert op.fmt is (DOUBLE if op.is_double else SINGLE)

    def test_mnemonic_lookup(self):
        for op in ALL_OPS:
            assert op_by_mnemonic(op.value) is op
        with pytest.raises(KeyError):
            op_by_mnemonic("fp.sqrt.d")


class TestFpuFacade:
    def test_scalar_execute(self, fpu):
        a = float_to_bits64(3.0)
        b = float_to_bits64(4.0)
        assert fpu.execute(FpOp.MUL_D, a, b) == float_to_bits64(12.0)

    def test_batch_matches_scalar(self, fpu, rng):
        a = floats_to_bits64(rng.uniform(-10, 10, size=64))
        b = floats_to_bits64(rng.uniform(-10, 10, size=64))
        batch = ops.golden(FpOp.ADD_D, a, b)
        for i in range(64):
            assert int(batch[i]) == fpu.execute(FpOp.ADD_D, int(a[i]),
                                                int(b[i]))

    def test_dta_batch_structure(self, fpu, rng):
        a = floats_to_bits64(rng.uniform(-10, 10, size=5000))
        b = floats_to_bits64(rng.uniform(-10, 10, size=5000))
        batch = fpu.dta(FpOp.MUL_D, a, b, [NOMINAL, VR20])
        assert set(batch.masks) == {"NOM", "VR20"}
        assert batch.golden.shape == a.shape
        assert batch.error_ratio("NOM") == 0.0

    def test_nominal_is_clean(self, fpu, rng):
        a = floats_to_bits64(rng.uniform(-10, 10, size=2000))
        b = floats_to_bits64(rng.uniform(-10, 10, size=2000))
        """Design invariant: no timing errors at the nominal point."""
        assert fpu.dta(FpOp.MUL_D, a, b, [NOMINAL]).error_ratio("NOM") == 0.0

    def test_operating_point_passthrough(self, fpu):
        point = fpu.operating_point(0.15)
        assert point.name == "VR15"
        assert point.voltage == pytest.approx(VR15.voltage)
