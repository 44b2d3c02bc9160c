"""Bit-accurate scalar IEEE-754 reference implementation (softfloat).

From-scratch implementation of the 12 FPU instructions on raw bit
patterns, with round-to-nearest-even, gradual underflow, and full special
-value handling.  This is the architectural golden model: the property
-based test-suite checks it bit-for-bit against hardware IEEE-754
(numpy) across the operand space, which is what justifies using native
float ops as the vectorised golden path in campaigns.

All functions take and return *raw bit patterns* as Python ints.
"""

from __future__ import annotations

from typing import Tuple

from repro.fpu.formats import FpOp
from repro.utils.ieee754 import DOUBLE, FloatFormat

#: Number of guard/round/sticky bits carried through intermediate results.
_GRS = 3

# Classification labels.
ZERO, SUBNORMAL, NORMAL, INF, NAN = "zero", "subnormal", "normal", "inf", "nan"


def classify(bits: int, fmt: FloatFormat) -> str:
    """IEEE-754 class of a raw bit pattern."""
    _, exponent, mantissa = fmt.fields(bits)
    if exponent == 0:
        return ZERO if mantissa == 0 else SUBNORMAL
    if exponent == fmt.exponent_max:
        return INF if mantissa == 0 else NAN
    return NORMAL


def quiet_nan(fmt: FloatFormat) -> int:
    """The canonical quiet NaN this FPU produces."""
    return fmt.pack(0, fmt.exponent_max, 1 << fmt.quiet_bit)


def infinity(sign: int, fmt: FloatFormat) -> int:
    return fmt.pack(sign, fmt.exponent_max, 0)


def zero(sign: int, fmt: FloatFormat) -> int:
    return fmt.pack(sign, 0, 0)


def _unpack(bits: int, fmt: FloatFormat) -> Tuple[int, int, int]:
    """(sign, unbiased exponent, significand with implicit bit).

    Subnormals are normalised: the significand is shifted up until its
    implicit-bit position is set and the exponent adjusted accordingly, so
    downstream arithmetic sees a uniform representation.  Caller must have
    excluded zero/inf/NaN.
    """
    sign, exponent, mantissa = fmt.fields(bits)
    if exponent == 0:  # subnormal
        shift = fmt.mantissa_bits + 1 - mantissa.bit_length()
        return sign, 1 - fmt.bias - shift, mantissa << shift
    return sign, exponent - fmt.bias, mantissa | (1 << fmt.mantissa_bits)


def _round_and_pack(sign: int, exponent: int, sig: int, fmt: FloatFormat) -> int:
    """Round-to-nearest-even and assemble the result.

    ``sig`` carries the significand with ``_GRS`` extra low bits and its
    leading one anywhere at or above bit ``mantissa_bits + _GRS`` is *not*
    assumed: this routine first renormalises, then rounds, handling
    overflow to infinity and gradual underflow to subnormal/zero.
    ``exponent`` is the unbiased exponent of the value
    ``sig * 2**(-mantissa_bits - _GRS)``.
    """
    target_msb = fmt.mantissa_bits + _GRS
    if sig == 0:
        return zero(sign, fmt)

    # Renormalise so the leading one sits exactly at target_msb.
    msb = sig.bit_length() - 1
    if msb > target_msb:
        shift = msb - target_msb
        sticky = int((sig & ((1 << shift) - 1)) != 0)
        sig = (sig >> shift) | sticky
        exponent += shift
    elif msb < target_msb:
        sig <<= target_msb - msb
        exponent -= target_msb - msb

    biased = exponent + fmt.bias
    if biased <= 0:
        # Gradual underflow: denormalise before rounding.
        shift = 1 - biased
        if shift > target_msb + 1:
            shift = target_msb + 1
        sticky = int((sig & ((1 << shift) - 1)) != 0)
        sig = (sig >> shift) | sticky
        biased = 0

    # Round to nearest even on the GRS bits.
    grs = sig & 0b111
    mantissa = sig >> _GRS
    if grs > 0b100 or (grs == 0b100 and (mantissa & 1)):
        mantissa += 1
        if mantissa >> (fmt.mantissa_bits + 1):
            mantissa >>= 1
            biased += 1
        elif biased == 0 and (mantissa >> fmt.mantissa_bits):
            # Subnormal rounded up into the smallest normal.
            biased = 1

    if biased >= fmt.exponent_max:
        return infinity(sign, fmt)
    if biased == 0:
        return fmt.pack(sign, 0, mantissa)
    return fmt.pack(sign, biased, mantissa & ((1 << fmt.mantissa_bits) - 1))


# -- addition / subtraction ------------------------------------------------------

def fp_add(a: int, b: int, fmt: FloatFormat) -> int:
    """IEEE-754 addition of raw patterns ``a + b``."""
    return _add_signed(a, b, fmt, negate_b=False)


def fp_sub(a: int, b: int, fmt: FloatFormat) -> int:
    """IEEE-754 subtraction of raw patterns ``a - b``."""
    return _add_signed(a, b, fmt, negate_b=True)


def _add_signed(a: int, b: int, fmt: FloatFormat, negate_b: bool) -> int:
    ca, cb = classify(a, fmt), classify(b, fmt)
    sb_flip = 1 << fmt.sign_bit if negate_b else 0
    b_eff = b ^ sb_flip

    if ca == NAN or cb == NAN:
        return quiet_nan(fmt)
    if ca == INF and cb == INF:
        if (a >> fmt.sign_bit) == (b_eff >> fmt.sign_bit):
            return infinity(a >> fmt.sign_bit, fmt)
        return quiet_nan(fmt)  # inf - inf
    if ca == INF:
        return a
    if cb == INF:
        return b_eff
    if ca == ZERO and cb == ZERO:
        sa, sb = a >> fmt.sign_bit, b_eff >> fmt.sign_bit
        # (+0) + (-0) = +0 under RNE; like signs keep the sign.
        return zero(sa & sb, fmt)
    if ca == ZERO:
        return b_eff
    if cb == ZERO:
        return a

    sa, ea, ma = _unpack(a, fmt)
    sb, eb, mb = _unpack(b_eff, fmt)

    # Order so A has the larger magnitude exponent (ties by mantissa).
    if (eb, mb) > (ea, ma):
        sa, ea, ma, sb, eb, mb = sb, eb, mb, sa, ea, ma
    diff = ea - eb

    ma <<= _GRS
    mb <<= _GRS
    if diff:
        if diff >= fmt.mantissa_bits + _GRS + 2:
            mb = 1  # pure sticky
        else:
            sticky = int((mb & ((1 << diff) - 1)) != 0)
            mb = (mb >> diff) | sticky

    if sa == sb:
        total = ma + mb
        sign = sa
    else:
        total = ma - mb
        sign = sa
        if total == 0:
            return zero(0, fmt)  # exact cancellation is +0 under RNE
    return _round_and_pack(sign, ea, total, fmt)


# -- multiplication ---------------------------------------------------------------

def fp_mul(a: int, b: int, fmt: FloatFormat) -> int:
    """IEEE-754 multiplication of raw patterns."""
    ca, cb = classify(a, fmt), classify(b, fmt)
    sign = (a >> fmt.sign_bit) ^ (b >> fmt.sign_bit)

    if ca == NAN or cb == NAN:
        return quiet_nan(fmt)
    if ca == INF or cb == INF:
        if ca == ZERO or cb == ZERO:
            return quiet_nan(fmt)  # 0 * inf
        return infinity(sign, fmt)
    if ca == ZERO or cb == ZERO:
        return zero(sign, fmt)

    _, ea, ma = _unpack(a, fmt)
    _, eb, mb = _unpack(b, fmt)
    product = ma * mb  # 2 * (mantissa_bits + 1) significant bits
    # value == product * 2**(ea + eb - 2*mb); _round_and_pack expects the
    # unbiased exponent E with value == sig * 2**(E - mb - GRS).
    exponent = ea + eb - fmt.mantissa_bits + _GRS
    return _round_and_pack(sign, exponent, product, fmt)


# -- division ---------------------------------------------------------------------

def fp_div(a: int, b: int, fmt: FloatFormat) -> int:
    """IEEE-754 division a / b of raw patterns."""
    ca, cb = classify(a, fmt), classify(b, fmt)
    sign = (a >> fmt.sign_bit) ^ (b >> fmt.sign_bit)

    if ca == NAN or cb == NAN:
        return quiet_nan(fmt)
    if ca == INF:
        if cb == INF:
            return quiet_nan(fmt)
        return infinity(sign, fmt)
    if cb == INF:
        return zero(sign, fmt)
    if cb == ZERO:
        if ca == ZERO:
            return quiet_nan(fmt)  # 0 / 0
        return infinity(sign, fmt)  # x / 0, the FPU's divide-by-zero result
    if ca == ZERO:
        return zero(sign, fmt)

    _, ea, ma = _unpack(a, fmt)
    _, eb, mb = _unpack(b, fmt)
    # Scale the dividend so the integer quotient has mantissa_bits + GRS + 1
    # significant bits, then fold the remainder into sticky.
    shift = fmt.mantissa_bits + _GRS + 2
    dividend = ma << shift
    quotient, remainder = divmod(dividend, mb)
    if remainder:
        quotient |= 1
    # value == quotient * 2**(ea - eb - shift)  =>  E = ea - eb - 2.
    exponent = ea - eb - shift + fmt.mantissa_bits + _GRS
    return _round_and_pack(sign, exponent, quotient, fmt)


# -- conversions --------------------------------------------------------------------

def _int_width(fmt: FloatFormat) -> int:
    """Integer width paired with the format (64 for double, 32 for single)."""
    return 64 if fmt is DOUBLE or fmt.width == 64 else 32


def fp_i2f(value: int, fmt: FloatFormat) -> int:
    """Signed integer to float (itof), round-to-nearest-even.

    ``value`` is interpreted as a signed two's-complement integer of the
    format's paired width (int64 for double, int32 for single).
    """
    width = _int_width(fmt)
    value &= (1 << width) - 1
    if value >> (width - 1):
        sign, magnitude = 1, (1 << width) - value
    else:
        sign, magnitude = 0, value
    if magnitude == 0:
        return zero(0, fmt)
    # value == magnitude == (magnitude << GRS) * 2**(E - mb - GRS) with
    # E = mantissa_bits.
    return _round_and_pack(sign, fmt.mantissa_bits, magnitude << _GRS, fmt)


def fp_f2i(bits: int, fmt: FloatFormat) -> int:
    """Float to signed integer (ftoi), round toward zero, saturating.

    NaN converts to 0; values beyond the integer range saturate, matching
    common embedded-FPU semantics (and keeping corrupted-input behaviour
    defined for the injector).  Returns the two's-complement pattern.
    """
    width = _int_width(fmt)
    cls = classify(bits, fmt)
    if cls == NAN:
        return 0
    int_min = 1 << (width - 1)
    int_max = int_min - 1
    mask = (1 << width) - 1
    if cls == INF:
        return (int_min if (bits >> fmt.sign_bit) else int_max) & mask
    if cls == ZERO:
        return 0
    sign, exponent, sig = _unpack(bits, fmt)
    # value = sig * 2**(exponent - mantissa_bits); truncate toward zero.
    shift = exponent - fmt.mantissa_bits
    if shift >= 0:
        if exponent >= width - 1:
            return (int_min if sign else int_max) & mask
        magnitude = sig << shift
    else:
        magnitude = sig >> (-shift) if -shift < sig.bit_length() + 1 else 0
    if magnitude > int_max + sign:
        return (int_min if sign else int_max) & mask
    return (-magnitude if sign else magnitude) & mask


# -- dispatch -----------------------------------------------------------------------

def execute(op: FpOp, a: int, b: int = 0) -> int:
    """Execute one instruction on raw bit patterns (scalar golden model)."""
    fmt = op.fmt
    kind = op.kind
    if kind == "add":
        return fp_add(a, b, fmt)
    if kind == "sub":
        return fp_sub(a, b, fmt)
    if kind == "mul":
        return fp_mul(a, b, fmt)
    if kind == "div":
        return fp_div(a, b, fmt)
    if kind == "i2f":
        return fp_i2f(a, fmt)
    if kind == "f2i":
        return fp_f2i(a, fmt)
    raise ValueError(f"unhandled operation {op}")
