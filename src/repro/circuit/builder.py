"""Datapath netlist generators (the synthesis step of the ASIC flow).

These produce the gate-level structures that dominate FPU timing paths:
ripple-carry and carry-select adders, barrel shifters, array multipliers,
leading-zero counters, comparators and incrementers.  Built netlists are
real gate graphs — static timing analysis and event-driven simulation run
on them directly — so path depth, per-bit arrival skew, and data-dependent
activation all emerge from structure rather than being asserted.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuit.cells import CellLibrary, LIBRARY
from repro.circuit.netlist import Netlist


class NetlistBuilder:
    """Incrementally builds a :class:`Netlist` with fresh-net bookkeeping."""

    def __init__(self, name: str, library: CellLibrary = LIBRARY):
        self.netlist = Netlist(name, library=library)
        self._counter = 0
        self._const_cache = {}

    # -- plumbing ---------------------------------------------------------------
    def fresh(self, hint: str = "n") -> str:
        self._counter += 1
        return f"{hint}_{self._counter}"

    def inputs(self, prefix: str, width: int) -> List[str]:
        """Declare a little-endian input bus ``prefix[0..width)``."""
        return self.netlist.add_inputs(f"{prefix}[{i}]" for i in range(width))

    def outputs(self, nets: Sequence[str]) -> List[str]:
        return self.netlist.mark_outputs(nets)

    def gate(self, cell: str, inputs: Sequence[str], hint: str = "") -> str:
        out = self.fresh(hint or cell.lower())
        self.netlist.add_gate(cell, inputs, out)
        return out

    def const(self, value: int) -> str:
        """A constant-0 or constant-1 net, driven by a tie cell."""
        value &= 1
        if value not in self._const_cache:
            cell = "TIE1" if value else "TIE0"
            self._const_cache[value] = self.gate(cell, [], hint=cell.lower())
        return self._const_cache[value]

    # -- boolean helpers ----------------------------------------------------------
    def inv(self, a: str) -> str:
        return self.gate("INV", [a])

    def and2(self, a: str, b: str) -> str:
        return self.gate("AND2", [a, b])

    def xor2(self, a: str, b: str) -> str:
        return self.gate("XOR2", [a, b])

    def mux2(self, d0: str, d1: str, sel: str) -> str:
        return self.gate("MUX2", [d0, d1, sel])

    def reduce_tree(self, cell2: str, nets: Sequence[str]) -> str:
        """Balanced binary reduction (e.g. wide OR) — log-depth, like synthesis."""
        nets = list(nets)
        if not nets:
            raise ValueError("reduce_tree needs at least one net")
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.gate(cell2, [nets[i], nets[i + 1]]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    # -- arithmetic blocks ----------------------------------------------------------
    def full_adder(self, a: str, b: str, cin: str) -> Tuple[str, str]:
        """(sum, carry-out) built from XOR3 + MAJ3 cells."""
        s = self.gate("XOR3", [a, b, cin], hint="fa_s")
        c = self.gate("MAJ3", [a, b, cin], hint="fa_c")
        return s, c

    def half_adder(self, a: str, b: str) -> Tuple[str, str]:
        s = self.gate("XOR2", [a, b], hint="ha_s")
        c = self.gate("AND2", [a, b], hint="ha_c")
        return s, c

    def ripple_adder(self, a: Sequence[str], b: Sequence[str],
                     cin: Optional[str] = None) -> Tuple[List[str], str]:
        """Ripple-carry adder; returns (sum bits, carry-out).

        The carry ripple is the canonical data-dependent long path: the
        settle time of bit i tracks the longest carry chain ending at i,
        which is exactly the behaviour the macro-timing model in
        :mod:`repro.fpu.timing` is calibrated against.
        """
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        carry = cin if cin is not None else self.const(0)
        sums: List[str] = []
        for ai, bi in zip(a, b):
            s, carry = self.full_adder(ai, bi, carry)
            sums.append(s)
        return sums, carry

    def carry_select_adder(self, a: Sequence[str], b: Sequence[str],
                           block: int = 4,
                           cin: Optional[str] = None) -> Tuple[List[str], str]:
        """Carry-select adder with fixed block size (a realistic fast adder)."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        carry = cin if cin is not None else self.const(0)
        sums: List[str] = []
        for lo in range(0, len(a), block):
            hi = min(lo + block, len(a))
            seg_a, seg_b = list(a[lo:hi]), list(b[lo:hi])
            s0, c0 = self.ripple_adder(seg_a, seg_b, cin=self.const(0))
            s1, c1 = self.ripple_adder(seg_a, seg_b, cin=self.const(1))
            for bit0, bit1 in zip(s0, s1):
                sums.append(self.mux2(bit0, bit1, carry))
            carry = self.mux2(c0, c1, carry)
        return sums, carry

    def subtractor(self, a: Sequence[str], b: Sequence[str]) -> Tuple[List[str], str]:
        """a - b via two's complement; returns (difference, borrow-free flag)."""
        b_inv = [self.inv(bit) for bit in b]
        diff, carry = self.ripple_adder(a, b_inv, cin=self.const(1))
        return diff, carry  # carry==1 means a >= b (no borrow)

    def incrementer(self, a: Sequence[str]) -> Tuple[List[str], str]:
        """a + 1 as a half-adder chain (PC incrementer, rounding increment)."""
        carry = self.const(1)
        sums: List[str] = []
        for bit in a:
            s, carry = self.half_adder(bit, carry)
            sums.append(s)
        return sums, carry

    def barrel_shifter_right(self, data: Sequence[str],
                             amount: Sequence[str]) -> List[str]:
        """Logical right barrel shifter (mantissa alignment, Fig. 3 stage 2).

        log2(width) mux stages; amount is little-endian.  Vacated positions
        fill with zero.
        """
        zero = self.const(0)
        current = list(data)
        for stage, sel in enumerate(amount):
            shift = 1 << stage
            nxt = []
            for i in range(len(current)):
                shifted = current[i + shift] if i + shift < len(current) else zero
                nxt.append(self.mux2(current[i], shifted, sel))
            current = nxt
        return current

    def barrel_shifter_left(self, data: Sequence[str],
                            amount: Sequence[str]) -> List[str]:
        """Logical left barrel shifter (post-normalisation, Fig. 3 stage 5)."""
        zero = self.const(0)
        current = list(data)
        for stage, sel in enumerate(amount):
            shift = 1 << stage
            nxt = []
            for i in range(len(current)):
                shifted = current[i - shift] if i - shift >= 0 else zero
                nxt.append(self.mux2(current[i], shifted, sel))
            current = nxt
        return current

    def leading_zero_counter(self, data: Sequence[str]) -> List[str]:
        """Count of leading (most-significant) zeros, little-endian result.

        Standard recursive LZC composition; width is padded to a power of
        two with zeros on the LSB side (which cannot introduce leading
        zeros at the MSB side).
        """
        width = len(data)
        size = 1
        while size < width:
            size *= 2
        padded = [self.const(0)] * (size - width) + list(data)

        def lzc(bits: List[str]) -> Tuple[List[str], str]:
            # returns (count bits little-endian, all-zero flag)
            if len(bits) == 1:
                return [], self.inv(bits[0])
            half = len(bits) // 2
            hi_cnt, hi_zero = lzc(bits[half:])   # MSB half
            lo_cnt, lo_zero = lzc(bits[:half])   # LSB half
            count_bits = [
                self.mux2(h, l, hi_zero) for h, l in zip(hi_cnt, lo_cnt)
            ]
            count_bits.append(hi_zero)
            both_zero = self.and2(hi_zero, lo_zero)
            return count_bits, both_zero

        count, all_zero = lzc(padded)
        count.append(all_zero)  # MSB: saturation flag when input is all zeros
        return count

    def array_multiplier(self, a: Sequence[str],
                         b: Sequence[str]) -> List[str]:
        """Unsigned array multiplier: AND partial products + carry-save rows.

        This is the structure behind the fp-mul critical path: the final
        row's carry propagation across ~2w bits is the longest path in the
        whole FPU (Fig. 4), and its activation depends on operand bit
        patterns — the root cause of fp-mul being the most error-prone
        instruction in Fig. 7.
        """
        wa, wb = len(a), len(b)
        zero = self.const(0)
        # Row 0 of partial sums.
        acc: List[str] = [self.and2(a[i], b[0]) for i in range(wa)] + [zero] * wb
        for j in range(1, wb):
            pp = [self.and2(a[i], b[j]) for i in range(wa)]
            carry = zero
            for i in range(wa):
                s, carry = self.full_adder(acc[i + j], pp[i], carry)
                acc[i + j] = s
            # Propagate the final row carry upward.
            k = j + wa
            while k < len(acc):
                s, carry = self.half_adder(acc[k], carry)
                acc[k] = s
                if carry is zero:
                    break
                k += 1
        return acc[: wa + wb]

    def decoder(self, select: Sequence[str]) -> List[str]:
        """n-to-2^n one-hot decoder (instruction decode stage)."""
        outputs = [self.const(1)]
        for sel in select:
            inv = self.inv(sel)
            nxt = []
            for net in outputs:
                nxt.append(self.and2(net, inv))
            for net in outputs:
                nxt.append(self.and2(net, sel))
            outputs = nxt
        return outputs

    def build(self) -> Netlist:
        """Validate and return the finished netlist."""
        self.netlist.validate()
        return self.netlist


# -- canned blocks used by the core model and tests --------------------------------

def build_adder(width: int, kind: str = "ripple", name: str = "") -> Netlist:
    """A standalone adder netlist with buses a, b and outputs s, cout."""
    builder = NetlistBuilder(name or f"{kind}_adder{width}")
    a = builder.inputs("a", width)
    b = builder.inputs("b", width)
    if kind == "ripple":
        sums, cout = builder.ripple_adder(a, b)
    elif kind == "carry_select":
        sums, cout = builder.carry_select_adder(a, b)
    else:
        raise ValueError(f"unknown adder kind {kind!r}")
    builder.outputs(sums)
    builder.outputs([cout])
    return builder.build()


def build_multiplier(width: int, name: str = "") -> Netlist:
    """A standalone width x width array multiplier netlist."""
    builder = NetlistBuilder(name or f"array_mul{width}")
    a = builder.inputs("a", width)
    b = builder.inputs("b", width)
    product = builder.array_multiplier(a, b)
    builder.outputs(product)
    return builder.build()


def build_shifter(width: int, direction: str = "right", name: str = "") -> Netlist:
    """A standalone barrel shifter netlist (amount bus is ceil(log2(width)))."""
    import math

    amount_bits = max(1, math.ceil(math.log2(width)))
    builder = NetlistBuilder(name or f"shifter{width}_{direction}")
    data = builder.inputs("d", width)
    amount = builder.inputs("sh", amount_bits)
    if direction == "right":
        out = builder.barrel_shifter_right(data, amount)
    elif direction == "left":
        out = builder.barrel_shifter_left(data, amount)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    builder.outputs(out)
    return builder.build()


def build_lzc(width: int, name: str = "") -> Netlist:
    """A standalone leading-zero counter netlist."""
    builder = NetlistBuilder(name or f"lzc{width}")
    data = builder.inputs("d", width)
    count = builder.leading_zero_counter(data)
    builder.outputs(count)
    return builder.build()
