"""Vectorised stage decomposition of the FPU datapath (Fig. 3).

For every instruction this module recomputes, over numpy arrays of raw
operand patterns, the *internal datapath signals* that determine dynamic
timing: carry/borrow propagation words of the mantissa adder, the final
carry-propagate addends of the multiplier's carry-save array, alignment
and normalisation shift distances, rounding-increment extents, and the
exponent-adder carry word.

The central identity used throughout: for any width-w addition
``s = (a + b + cin) mod 2^w`` the word ``a ^ b ^ s`` holds the carry *into*
every bit position.  The length of a run of ones ending at bit p equals
the ripple depth with which the carry arrived at p — which is exactly the
per-bit settle-time information dynamic timing analysis extracts from
gate-level simulation, here obtained in O(1) vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.fpu.formats import FpOp
from repro.utils.bitops import bit_length64
from repro.utils.ieee754 import FloatFormat

_U = np.uint64
_GRS = 3


def _u(k: int) -> np.uint64:
    return np.uint64(k)


def _fields(bits: np.ndarray, fmt: FloatFormat):
    """(sign, biased exponent, mantissa) arrays from raw patterns."""
    bits = bits.astype(np.uint64, copy=False)
    sign = (bits >> _u(fmt.sign_bit)) & _u(1)
    exponent = (bits >> _u(fmt.exponent_lo)) & _u(fmt.exponent_max)
    mantissa = bits & _u((1 << fmt.mantissa_bits) - 1)
    return sign, exponent, mantissa


def _significand(exponent: np.ndarray, mantissa: np.ndarray,
                 fmt: FloatFormat) -> Tuple[np.ndarray, np.ndarray]:
    """(effective exponent, significand with implicit bit when normal)."""
    normal = exponent != 0
    sig = np.where(normal, mantissa | _u(1 << fmt.mantissa_bits), mantissa)
    eff = np.where(normal, exponent, _u(1))
    return eff, sig.astype(np.uint64)


def _finite(exponent: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    return exponent != _u(fmt.exponent_max)


def _normal_result(golden: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Results whose datapath followed the normal arithmetic flow."""
    _, exponent, _ = _fields(golden, fmt)
    return (exponent != 0) & (exponent != _u(fmt.exponent_max))


@dataclass
class AddSubSignals:
    """Stage signals of the add/sub pipeline (Fig. 3, stages 1-6)."""

    valid: np.ndarray          # elements on the normal datapath
    carry_word: np.ndarray     # mantissa-adder carry-in word (S-domain)
    prop_word: np.ndarray      # carry/borrow-propagate positions (S-domain)
    sum_msb: np.ndarray        # index of the sum's leading one (S-domain)
    norm_shift: np.ndarray     # left-normalisation distance (stage 5)
    align_shift: np.ndarray    # alignment distance (stage 2)
    effective_sub: np.ndarray  # bool: mantissas subtracted
    sigma: np.ndarray          # S-domain bit of arch mantissa LSB
    round_diff: np.ndarray     # golden ^ truncated mantissa (arch domain)
    exp_carry: np.ndarray      # exponent-update carry word
    exp_prop: np.ndarray       # exponent-update propagate word


@dataclass
class MulSignals:
    """Stage signals of the multiply pipeline (CSA array + CPA + round)."""

    valid: np.ndarray
    cpa_carry_lo: np.ndarray   # carry word of the final CPA, bits 0..63
    cpa_carry_hi: np.ndarray   # carry word of the final CPA, bits 64..105
    cpa_prop_lo: np.ndarray    # propagate word of the final CPA, bits 0..63
    cpa_prop_hi: np.ndarray    # propagate word of the final CPA, bits 64..105
    sigma: np.ndarray          # product bit of arch mantissa LSB (52 or 53)
    round_diff: np.ndarray
    exp_carry: np.ndarray      # carry word of the exponent adder ea+eb
    exp_prop: np.ndarray       # propagate word of the exponent adder


@dataclass
class DivSignals:
    """Stage signals of the iterative divider."""

    valid: np.ndarray
    borrow_word: np.ndarray    # borrow word of the first subtract ma - mb
    borrow_prop: np.ndarray    # borrow-propagate word of the same subtract
    quotient_runs: np.ndarray  # equal-bit-run word of the quotient mantissa
    golden_mantissa: np.ndarray


@dataclass
class ConvSignals:
    """Stage signals of the conversion paths (LZC + shifter, no chains)."""

    valid: np.ndarray
    shift_depth: np.ndarray    # shifter levels exercised


# -- add / sub ----------------------------------------------------------------------

def addsub_signals(op: FpOp, a: np.ndarray, b: np.ndarray,
                   golden: np.ndarray) -> AddSubSignals:
    """Recompute the add/sub datapath, returning its timing signals.

    The computation mirrors :func:`repro.fpu.softfloat._add_signed`
    vectorised: unpack (stage 1), align (stage 2), operand select
    (stage 3), mantissa add with the carry word extracted (stage 4),
    normalisation distance (stage 5), rounding extent (stage 6).
    """
    fmt = op.fmt
    mb_bits = fmt.mantissa_bits
    sum_width = mb_bits + 1 + _GRS  # significand + implicit + GRS

    sa, ea, ma = _fields(a, fmt)
    sb, eb, mbm = _fields(b, fmt)
    if op.kind == "sub":
        sb = sb ^ _u(1)

    ea_eff, siga = _significand(ea, ma, fmt)
    eb_eff, sigb = _significand(eb, mbm, fmt)

    valid = (
        _finite(ea, fmt) & _finite(eb, fmt)
        & _normal_result(golden, fmt)
        & ~((ea == 0) & (ma == 0)) & ~((eb == 0) & (mbm == 0))
    )

    # Stage 1/3: order by magnitude so the adder always computes big - small.
    a_big = (ea_eff > eb_eff) | ((ea_eff == eb_eff) & (siga >= sigb))
    big_sig = np.where(a_big, siga, sigb)
    small_sig = np.where(a_big, sigb, siga)
    big_exp = np.where(a_big, ea_eff, eb_eff)
    small_exp = np.where(a_big, eb_eff, ea_eff)

    # Stage 2: alignment shift with sticky collapse.
    align = (big_exp - small_exp).astype(np.int64)
    align_c = np.minimum(align, sum_width + 1).astype(np.uint64)
    shifted = (small_sig << _u(_GRS)) >> align_c
    lost = (small_sig << _u(_GRS)) & ((_u(1) << align_c) - _u(1))
    shifted = shifted | (lost != 0).astype(np.uint64)

    big = big_sig << _u(_GRS)
    effective_sub = (sa ^ sb).astype(bool)

    # Stage 4: mantissa add/subtract.  The identity a ^ b ^ (a ± b) yields
    # the carry-in (borrow-in) at every bit position; runs of ones in it
    # are the ripple chains that set per-bit settle times.  Magnitude
    # ordering guarantees big >= shifted, so the subtract never wraps.
    mask = _u((1 << (sum_width + 1)) - 1)
    total = np.where(effective_sub, big - shifted, big + shifted) & mask
    carry_word = (big ^ shifted ^ total) & mask
    # Carry propagates through a ^ b positions; borrows through a == b.
    prop_word = np.where(effective_sub, ~(big ^ shifted), big ^ shifted) & mask

    sum_msb = bit_length64(total) - 1
    sum_msb = np.maximum(sum_msb, 0)

    # Stage 5: distance of the leading one below its no-cancel position.
    norm_shift = np.maximum(0, (mb_bits + _GRS) - sum_msb).astype(np.int64)

    # Mapping of arch mantissa LSB into the sum domain.
    sigma = (sum_msb - mb_bits).astype(np.int64)

    # Stage 6: rounding extent = bits the final round-increment changed.
    g_man = golden.astype(np.uint64) & _u((1 << mb_bits) - 1)
    shift_amount = np.clip(sigma, 0, 63).astype(np.uint64)
    trunc = np.where(sigma >= 0, (total >> shift_amount),
                     (total << np.clip(-sigma, 0, 63).astype(np.uint64)))
    trunc = trunc & _u((1 << mb_bits) - 1)
    round_diff = g_man ^ trunc

    # Exponent update carry word: the stage-5 adjustment adds or subtracts
    # a small magnitude; its ripple runs through the bits of the larger
    # exponent (long exactly when a binade boundary is crossed).
    _, e_res, _ = _fields(golden, fmt)
    delta = (e_res.astype(np.int64) - big_exp.astype(np.int64))
    emask = _u(fmt.exponent_max)
    delta_mag = np.abs(delta).astype(np.uint64)
    exp_carry = (big_exp ^ delta_mag ^ e_res) & emask
    exp_prop = np.where(delta < 0, ~(big_exp ^ delta_mag),
                        big_exp ^ delta_mag) & emask

    return AddSubSignals(
        valid=valid,
        carry_word=carry_word,
        prop_word=prop_word,
        sum_msb=sum_msb,
        norm_shift=norm_shift,
        align_shift=align,
        effective_sub=effective_sub,
        sigma=sigma,
        round_diff=round_diff,
        exp_carry=exp_carry,
        exp_prop=exp_prop,
    )


# -- multiply -----------------------------------------------------------------------

def _csa_limb(s: np.ndarray, c: np.ndarray, pp: np.ndarray,
              x: np.ndarray) -> None:
    """One limb of a CSA row, in place: s <- s ^ c ^ pp, c <- majority.

    The majority is left unshifted; ``x`` is scratch.
    """
    np.bitwise_xor(s, c, out=x)
    c &= s
    np.bitwise_and(x, pp, out=s)
    c |= s                          # (s & c) | ((s ^ c) & pp)
    np.bitwise_xor(x, pp, out=s)


def _csa_accumulate(siga: np.ndarray, sigb: np.ndarray,
                    width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Carry-save accumulation of the partial-product array.

    Returns the two final CPA addends (sum row, carry row) as (lo, hi)
    limb pairs — the operands of the multiplier's final carry-propagate
    adder, whose data-dependent carry chains are the fp-mul critical path.

    Every row runs in place on preallocated buffers.  With
    ``siga < 2**width``, the sum and carry rows after ``j`` rows stay
    below ``2**(width + j - 1)`` (a majority bit needs two of the three
    inputs, and only the new partial product reaches the top bit), so
    rows ``j <= 64 - width`` put nothing at bit 64 and skip the high limb.
    """
    if not 0 < width < 64:
        raise ValueError(f"significand width {width} outside 1..63")
    s_lo, s_hi, c_lo, c_hi = (np.zeros_like(siga) for _ in range(4))
    take, pp, x = (np.empty_like(siga) for _ in range(3))
    signed_take = take.view(np.int64)
    one = _u(1)
    for j in range(width):
        # All-ones where bit j of sigb is set: move it to the sign bit,
        # then shift it arithmetically back across the word.
        np.left_shift(sigb, _u(63 - j), out=take)
        np.right_shift(signed_take, 63, out=signed_take)
        np.bitwise_and(siga, take, out=pp)
        high = j > 64 - width
        if high:
            # take is spent: it holds the high limb's partial product.
            np.right_shift(pp, _u(64 - j), out=take)
            _csa_limb(s_hi, c_hi, take, x)
        pp <<= _u(j)
        _csa_limb(s_lo, c_lo, pp, x)
        # c' = majority << 1 across the two limbs.
        if high:
            c_hi <<= one
            np.right_shift(c_lo, _u(63), out=x)
            c_hi |= x
        c_lo <<= one
    return s_lo, s_hi, c_lo, c_hi


def _add128(a_lo, a_hi, b_lo, b_hi):
    lo = a_lo + b_lo
    carry = (lo < a_lo).astype(np.uint64)
    hi = a_hi + b_hi + carry
    return lo, hi


def mul_signals(op: FpOp, a: np.ndarray, b: np.ndarray,
                golden: np.ndarray) -> MulSignals:
    """Recompute the multiply datapath, returning its timing signals."""
    fmt = op.fmt
    mb_bits = fmt.mantissa_bits
    sig_width = mb_bits + 1

    sa, ea, ma = _fields(a, fmt)
    sb, eb, mbm = _fields(b, fmt)
    ea_eff, siga = _significand(ea, ma, fmt)
    eb_eff, sigb = _significand(eb, mbm, fmt)

    valid = (
        _finite(ea, fmt) & _finite(eb, fmt)
        & _normal_result(golden, fmt)
        & (siga != 0) & (sigb != 0)
    )

    s_lo, s_hi, c_lo, c_hi = _csa_accumulate(siga, sigb, sig_width)
    p_lo, p_hi = _add128(s_lo, s_hi, c_lo, c_hi)
    cpa_lo = s_lo ^ c_lo ^ p_lo
    cpa_hi = s_hi ^ c_hi ^ p_hi
    prop_lo = s_lo ^ c_lo
    prop_hi = s_hi ^ c_hi

    # Leading-one position of the product (2*sig_width-1 or -2 bits).
    msb = np.where(p_hi != 0, bit_length64(p_hi) + 63, bit_length64(p_lo) - 1)
    sigma = (msb - mb_bits).astype(np.int64)

    # Architectural mantissa window of the raw (truncated) product.  All
    # shift counts are clamped to [0, 63] before use (numpy shifts by >= 64
    # are undefined); out-of-range elements are invalid and masked anyway.
    s_amt = np.clip(sigma, 0, 127).astype(np.int64)
    lo_amt = np.minimum(s_amt, 63).astype(np.uint64)
    lo_part = np.where(s_amt < 64, p_lo >> lo_amt, _u(0))
    hi_shl = np.clip(64 - s_amt, 0, 63).astype(np.uint64)
    hi_shr = np.clip(s_amt - 64, 0, 63).astype(np.uint64)
    hi_part = np.where(
        (s_amt > 0) & (s_amt < 64), p_hi << hi_shl,
        np.where(s_amt >= 64, p_hi >> hi_shr, _u(0)),
    )
    trunc = (lo_part | hi_part) & _u((1 << mb_bits) - 1)
    g_man = golden.astype(np.uint64) & _u((1 << mb_bits) - 1)
    round_diff = g_man ^ trunc

    # Exponent adder ea + eb (first stage of the exponent path).
    emask = _u(fmt.exponent_max)
    exp_sum = (ea_eff + eb_eff) & emask
    exp_carry = (ea_eff ^ eb_eff ^ exp_sum) & emask
    exp_prop = (ea_eff ^ eb_eff) & emask

    return MulSignals(
        valid=valid,
        cpa_carry_lo=cpa_lo,
        cpa_carry_hi=cpa_hi,
        cpa_prop_lo=prop_lo,
        cpa_prop_hi=prop_hi,
        sigma=sigma,
        round_diff=round_diff,
        exp_carry=exp_carry,
        exp_prop=exp_prop,
    )


# -- divide -------------------------------------------------------------------------

def div_signals(op: FpOp, a: np.ndarray, b: np.ndarray,
                golden: np.ndarray) -> DivSignals:
    """Recompute the divide datapath's timing stress signals.

    The divider is iterative (one quotient digit per cycle): the per-cycle
    path is the remainder subtract, and digit-selection stress correlates
    with runs of equal quotient bits (the classic SRT worst case).  We
    extract the borrow word of the initial subtract and the equal-run word
    of the quotient mantissa.
    """
    fmt = op.fmt
    mb_bits = fmt.mantissa_bits

    sa, ea, ma = _fields(a, fmt)
    sb, eb, mbm = _fields(b, fmt)
    _, siga = _significand(ea, ma, fmt)
    _, sigb = _significand(eb, mbm, fmt)

    valid = (
        _finite(ea, fmt) & _finite(eb, fmt)
        & _normal_result(golden, fmt)
        & (sigb != 0) & (siga != 0)
    )

    # The divider pre-normalises so the first subtraction is always
    # big - small (quotient digit selection); order the significands.
    width = mb_bits + 1
    mask = _u((1 << width) - 1)
    big = np.maximum(siga, sigb)
    small = np.minimum(siga, sigb)
    diff = (big - small) & mask
    borrow_word = (big ^ small ^ diff) & mask
    borrow_prop = ~(big ^ small) & mask

    g_man = golden.astype(np.uint64) & _u((1 << mb_bits) - 1)
    # Bit i set where quotient bit i equals bit i-1: runs of equal digits.
    runs = (~(g_man ^ (g_man >> _u(1)))) & _u((1 << (mb_bits - 1)) - 1)

    return DivSignals(
        valid=valid,
        borrow_word=borrow_word,
        borrow_prop=borrow_prop,
        quotient_runs=runs,
        golden_mantissa=g_man,
    )


# -- conversions ----------------------------------------------------------------------

def conv_signals(op: FpOp, a: np.ndarray,
                 golden: np.ndarray) -> ConvSignals:
    """Timing signals of i2f/f2i: LZC + barrel shifter, no carry chains.

    The shifter exercises one mux level per set bit of the shift amount;
    total depth stays far below the adder/multiplier paths, which is why
    these instructions are error-free at the paper's VR levels (Fig. 7).
    """
    fmt = op.fmt
    a = a.astype(np.uint64, copy=False)
    if op.kind == "i2f":
        width = 64 if op.is_double else 32
        mask = _u((1 << width) - 1)
        value = a & mask
        sign = (value >> _u(width - 1)) & _u(1)
        magnitude = np.where(sign == 1, (~value + _u(1)) & mask, value)
        valid = magnitude != 0
        shift = np.abs(width - bit_length64(magnitude)).astype(np.int64)
    else:
        _, exponent, _ = _fields(a, fmt)
        valid = _finite(exponent, fmt) & (exponent != 0)
        shift = np.abs(
            exponent.astype(np.int64) - fmt.bias - fmt.mantissa_bits
        )
    # Depth = number of active shifter levels (set bits of the amount).
    levels = np.zeros(a.shape, dtype=np.int64)
    s = np.clip(shift, 0, (1 << 12) - 1).astype(np.uint64)
    for k in range(12):
        levels += ((s >> _u(k)) & _u(1)).astype(np.int64)
    return ConvSignals(valid=valid, shift_depth=levels)
