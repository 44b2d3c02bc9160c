"""Bit-identity oracle for the macro-model DTA kernel.

``TimingModel.error_masks`` evaluates every operating point in one
run-depth pass per carry word, the multiplier's carry-save array runs in
place, and the population counts use ``np.bitwise_count``.  The
reference implementations below are frozen copies of the earlier kernel:
a fresh-temporary CSA, one ``_run_late_mask`` call per point with
OR-accumulation over every depth, one mask-builder call per point, SWAR
population counts and a per-bit ``count_nonzero`` loop.  Every mask must
match them exactly, for all 12 instructions, over random, all-ones,
near-cancelling, subnormal, zero, infinite and NaN operands, and the
masks of one fixed stream are pinned by digest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.circuit.liberty import (  # noqa: E402
    NOMINAL, OperatingPoint, VR15, VR20)
from repro.errors.characterize import _per_bit_counts  # noqa: E402
from repro.fpu import ops, stages, timing  # noqa: E402
from repro.fpu.formats import ALL_OPS, FpOp  # noqa: E402
from repro.fpu.timing import TimingModel  # noqa: E402
from repro.utils.bitops import bit_length64, count_ones  # noqa: E402

_u = np.uint64


# -- frozen reference implementations -----------------------------------------

def _ref_count_ones(array: np.ndarray) -> np.ndarray:
    v = array.astype(np.uint64, copy=True)
    v = v - ((v >> _u(1)) & _u(0x5555555555555555))
    v = (v & _u(0x3333333333333333)) + ((v >> _u(2)) & _u(0x3333333333333333))
    v = (v + (v >> _u(4))) & _u(0x0F0F0F0F0F0F0F0F)
    return ((v * _u(0x0101010101010101)) >> _u(56)).astype(np.int64)


def _ref_bit_length64(array: np.ndarray) -> np.ndarray:
    v = array.astype(np.uint64, copy=True)
    v |= v >> _u(1)
    v |= v >> _u(2)
    v |= v >> _u(4)
    v |= v >> _u(8)
    v |= v >> _u(16)
    v |= v >> _u(32)
    return _ref_count_ones(v)


def _ref_per_bit_counts(masks: np.ndarray, width: int) -> np.ndarray:
    counts = np.zeros(width, dtype=np.int64)
    if masks.size == 0:
        return counts
    for bit in range(width):
        counts[bit] = int(np.count_nonzero((masks >> np.uint64(bit)) & np.uint64(1)))
    return counts


def _ref_csa_accumulate(siga, sigb, width):
    s_lo = np.zeros_like(siga)
    s_hi = np.zeros_like(siga)
    c_lo = np.zeros_like(siga)
    c_hi = np.zeros_like(siga)
    for j in range(width):
        bit = (sigb >> _u(j)) & _u(1)
        take = (~(bit - _u(1)))  # all-ones where bit set, zero otherwise
        if j < 64:
            pp_lo = (siga << _u(j)) & take
            pp_hi = ((siga >> _u(64 - j)) & take) if j else np.zeros_like(siga)
        else:
            pp_lo = np.zeros_like(siga)
            pp_hi = (siga << _u(j - 64)) & take
        new_s_lo = s_lo ^ c_lo ^ pp_lo
        new_s_hi = s_hi ^ c_hi ^ pp_hi
        maj_lo = (s_lo & c_lo) | (s_lo & pp_lo) | (c_lo & pp_lo)
        maj_hi = (s_hi & c_hi) | (s_hi & pp_hi) | (c_hi & pp_hi)
        c_lo = maj_lo << _u(1)
        c_hi = (maj_hi << _u(1)) | (maj_lo >> _u(63))
        s_lo, s_hi = new_s_lo, new_s_hi
    return s_lo, s_hi, c_lo, c_hi


def _ref_run_late_mask(carry, prop, k_star, width):
    late = np.zeros_like(carry)
    finite = k_star <= width
    if not finite.any():
        return late
    chain = carry & prop
    acc = carry.copy()
    shifted = chain.copy()
    k_max = int(k_star[finite].max())
    for k in range(1, min(width, k_max) + 1):
        if k > 1:
            shifted = shifted << _u(1)  # chain << (k - 1)
            acc = acc & shifted
        hit = k >= k_star
        if hit.any():
            late |= np.where(hit, acc, _u(0))
        if hit.all() or not acc.any():
            break
    return late


def _ref_run_late_mask128(carry_lo, carry_hi, prop_lo, prop_hi, k_star,
                          width, column_masks=None):
    late_lo = np.zeros_like(carry_lo)
    late_hi = np.zeros_like(carry_hi)
    if math.isinf(k_star):
        return late_lo, late_hi
    acc_lo, acc_hi = carry_lo.copy(), carry_hi.copy()
    sh_lo = carry_lo & prop_lo
    sh_hi = carry_hi & prop_hi
    k_base = max(1, int(math.ceil(k_star)))
    for k in range(1, min(width, k_base) + 1):
        if k > 1:
            sh_hi = (sh_hi << _u(1)) | (sh_lo >> _u(63))
            sh_lo = sh_lo << _u(1)
            acc_lo &= sh_lo
            acc_hi &= sh_hi
        if column_masks and k in column_masks:
            m_lo, m_hi = column_masks[k]
            late_lo |= acc_lo & _u(m_lo)
            late_hi |= acc_hi & _u(m_hi)
        if k >= k_base:
            late_lo |= acc_lo
            late_hi |= acc_hi
            break
        if not (acc_lo.any() or acc_hi.any()):
            break
    return late_lo, late_hi


def _ref_shift_signed(word, amount, mask):
    right = np.clip(amount, 0, 63).astype(np.uint64)
    left = np.clip(-amount, 0, 63).astype(np.uint64)
    out = np.where(amount >= 0, word >> right, word << left)
    return out & _u(mask)


def _ref_mul_column_masks(model, sig_width, k_star):
    if math.isinf(k_star):
        return None
    product_bits = 2 * sig_width
    weight_cap = model.config.mul_column_weight
    buckets: Dict[int, List[int]] = {}
    for p in range(product_bits):
        height = min(p, product_bits - 1 - p, sig_width - 1)
        w = round(weight_cap * height / (sig_width - 1))
        if w <= 0:
            continue
        k = max(1, math.ceil(k_star - w))
        buckets.setdefault(k, []).append(p)
    out = {}
    for k, positions in buckets.items():
        lo = hi = 0
        for p in positions:
            if p < 64:
                lo |= 1 << p
            else:
                hi |= 1 << (p - 64)
        out[k] = (lo, hi)
    return out


def _ref_addsub_masks(model, op, sig, threshold):
    fmt = op.fmt
    cfg = model.config
    n = sig.carry_word.shape[0]
    mant_mask = (1 << fmt.mantissa_bits) - 1
    width = fmt.mantissa_bits + 1 + 3 + 1

    mask = np.zeros(n, dtype=np.uint64)
    params = cfg.mantissa_params(op)
    ks = params.k_star(threshold)
    if not math.isinf(ks):
        offset = np.floor(
            cfg.norm_depth_weight * np.log2(1.0 + sig.norm_shift)
        )
        k_eff = np.maximum(
            1, np.ceil(ks - offset)
        ).astype(np.int64)
        late = _ref_run_late_mask(sig.carry_word, sig.prop_word, k_eff, width)
        mask |= _ref_shift_signed(late, sig.sigma, mant_mask)
        top_late = (late >> _u(fmt.mantissa_bits + 3)) != 0
        mask |= np.where(top_late & sig.effective_sub,
                         _u(1 << fmt.sign_bit), _u(0))

    rparams = cfg.aux_params(cfg.round, op)
    kr = rparams.k_star(threshold)
    if not math.isinf(kr):
        extent = _ref_bit_length64(sig.round_diff)
        mask |= np.where(extent >= kr, sig.round_diff, _u(0))

    eparams = cfg.exponent_params(op)
    if eparams is not None:
        ke = eparams.k_star(threshold)
        if not math.isinf(ke):
            k_eff = np.full(n, max(1, math.ceil(ke)), dtype=np.int64)
            late_e = _ref_run_late_mask(sig.exp_carry, sig.exp_prop, k_eff,
                                        fmt.exponent_bits)
            mask |= late_e << _u(fmt.exponent_lo)
    return mask


def _ref_mul_masks(model, op, sig, threshold):
    fmt = op.fmt
    cfg = model.config
    n = sig.cpa_carry_lo.shape[0]
    mant_mask = (1 << fmt.mantissa_bits) - 1
    width = 2 * (fmt.mantissa_bits + 1)

    mask = np.zeros(n, dtype=np.uint64)
    params = cfg.mantissa_params(op)
    ks = params.k_star(threshold)
    if not math.isinf(ks):
        column_masks = _ref_mul_column_masks(model, fmt.mantissa_bits + 1, ks)
        late_lo, late_hi = _ref_run_late_mask128(
            sig.cpa_carry_lo, sig.cpa_carry_hi,
            sig.cpa_prop_lo, sig.cpa_prop_hi, ks, width, column_masks
        )
        s = np.clip(sig.sigma, 0, 63).astype(np.uint64)
        up = np.clip(64 - sig.sigma, 1, 63).astype(np.uint64)
        window = (late_lo >> s) | np.where(
            sig.sigma > 0, late_hi << up, _u(0)
        )
        mask |= window & _u(mant_mask)

    rparams = cfg.aux_params(cfg.round, op)
    kr = rparams.k_star(threshold)
    if not math.isinf(kr):
        extent = _ref_bit_length64(sig.round_diff)
        mask |= np.where(extent >= kr, sig.round_diff, _u(0))

    eparams = cfg.exponent_params(op)
    if eparams is not None:
        ke = eparams.k_star(threshold)
        if not math.isinf(ke):
            k_eff = np.full(n, max(1, math.ceil(ke)), dtype=np.int64)
            late_e = _ref_run_late_mask(sig.exp_carry, sig.exp_prop, k_eff,
                                        fmt.exponent_bits)
            mask |= late_e << _u(fmt.exponent_lo)
    return mask


def _ref_div_masks(model, op, sig, threshold):
    fmt = op.fmt
    cfg = model.config
    n = sig.borrow_word.shape[0]
    mant_mask = (1 << fmt.mantissa_bits) - 1

    mask = np.zeros(n, dtype=np.uint64)
    params = cfg.mantissa_params(op)
    ks = params.k_star(threshold)
    if not math.isinf(ks):
        k_eff = np.full(n, max(1, math.ceil(ks)), dtype=np.int64)
        late_b = _ref_run_late_mask(sig.borrow_word, sig.borrow_prop, k_eff,
                                    fmt.mantissa_bits + 1)
        late_q = _ref_run_late_mask(sig.quotient_runs, sig.quotient_runs,
                                    k_eff, fmt.mantissa_bits - 1)
        late = (late_b | late_q) & _u(mant_mask)
        top = _ref_bit_length64(late)
        below = np.where(
            late != 0,
            (_u(1) << np.clip(top - 1, 0, 63).astype(np.uint64)) - _u(1),
            _u(0),
        )
        mask |= late | (below & sig.golden_mantissa)
    return mask


def _ref_conv_masks(model, op, sig, threshold):
    cfg = model.config
    n = sig.shift_depth.shape[0]
    params = cfg.mantissa_params(op)
    ks = params.k_star(threshold)
    mask = np.zeros(n, dtype=np.uint64)
    if math.isinf(ks):
        return mask
    late = sig.shift_depth >= ks
    extent = np.clip(sig.shift_depth - np.floor(ks) + 1, 1, 63)
    burst = (_u(1) << extent.astype(np.uint64)) - _u(1)
    return np.where(late, burst, _u(0))


def _ref_error_masks(model: TimingModel, op: FpOp, a: np.ndarray,
                     b: Optional[np.ndarray], points) -> Dict[str, np.ndarray]:
    """The per-point loop: signals once, then one builder call per point.

    Stage signals come from :mod:`repro.fpu.stages` with the reference
    carry-save array swapped in.
    """
    a = np.asarray(a, dtype=np.uint64)
    golden = ops.golden(op, a, b)
    kind = op.kind
    with mock.patch.object(stages, "_csa_accumulate", _ref_csa_accumulate):
        if kind in ("add", "sub"):
            signals = stages.addsub_signals(op, a, b, golden)
            build = _ref_addsub_masks
        elif kind == "mul":
            signals = stages.mul_signals(op, a, b, golden)
            build = _ref_mul_masks
        elif kind == "div":
            signals = stages.div_signals(op, a, b, golden)
            build = _ref_div_masks
        else:
            signals = stages.conv_signals(op, a, golden)
            build = _ref_conv_masks
    out: Dict[str, np.ndarray] = {}
    for point in points:
        mask = build(model, op, signals, model.threshold(point))
        mask = np.where(signals.valid, mask, _u(0))
        out[point.name] = mask
    return out


# -- operands and operating points --------------------------------------------

@dataclass(frozen=True)
class StressPoint(OperatingPoint):
    """An operating point that carries its delay factor directly."""

    factor: float = 1.0


class StressTimingModel(TimingModel):
    """The library's timing model, taking a stress point's own factor.

    Only the threshold differs: both the kernel under test and the
    frozen reference read every point's threshold through it, so deep
    points beyond the voltage curve drive the same kernels.
    """

    def threshold(self, point: OperatingPoint) -> float:
        if isinstance(point, StressPoint):
            return max(0.0, 1.0 - 1.0 / point.factor)
        return super().threshold(point)


#: The model both paths run: the library's default configuration and
#: technology, with stress points honoured.
DEFAULT_MODEL = StressTimingModel()

#: A composed stress point (15 % undervolting, seven years of aging at
#: 85 C) carrying its delay factor, and a deep one where double-precision
#: k* clamps to 1 and single-precision paths fail too.
STRESS = StressPoint(name="STRESS", voltage=0.935, temperature_c=85.0,
                     factor=float.fromhex("0x1.679ca91e6a2b3p+0"))
DEEP = StressPoint(name="DEEP", voltage=0.5, factor=20.0)

POINT_LISTS = {
    "VR15": [VR15],
    "VR20": [VR20],
    "VR15+VR20": [VR15, VR20],
    "VR20+VR15": [VR20, VR15],
    "STRESS": [STRESS],
    "DEEP": [DEEP],
    "all": [NOMINAL, STRESS, VR15, DEEP, VR20],
}

KINDS = ("random", "values", "ones", "cancel", "subnormal", "zero", "inf",
         "nan")


def _float_operand(op: FpOp, kind: str, rng: np.random.Generator,
                   n: int) -> np.ndarray:
    """``n`` raw patterns of one class in ``op``'s float format."""
    fmt = op.fmt
    man_mask = (1 << fmt.mantissa_bits) - 1
    sign = rng.integers(0, 2, size=n, dtype=np.uint64) << _u(fmt.sign_bit)
    exponent = rng.integers(1, fmt.exponent_max, size=n, dtype=np.uint64)
    mantissa = rng.integers(0, man_mask + 1, size=n, dtype=np.uint64)
    if kind == "random":
        return rng.integers(0, 1 << fmt.width, size=n, dtype=np.uint64)
    if kind == "values":
        return ops.values_to_bits(op, rng.uniform(-1000.0, 1000.0, size=n))
    if kind == "ones":
        mantissa = np.full(n, man_mask, dtype=np.uint64)
    elif kind == "subnormal":
        exponent = np.zeros(n, dtype=np.uint64)
    elif kind == "zero":
        exponent = np.zeros(n, dtype=np.uint64)
        mantissa = np.zeros(n, dtype=np.uint64)
    elif kind == "inf":
        exponent = np.full(n, fmt.exponent_max, dtype=np.uint64)
        mantissa = np.zeros(n, dtype=np.uint64)
    elif kind == "nan":
        exponent = np.full(n, fmt.exponent_max, dtype=np.uint64)
        mantissa |= _u(1)
    return sign | (exponent << _u(fmt.exponent_lo)) | mantissa


def _operands(op: FpOp, kinds, rng: np.random.Generator, n: int):
    """A stream of ``n`` operand pairs drawn from the given classes."""
    if op.kind == "i2f":
        width = 64 if op.is_double else 32
        specials = np.array([0, 1, (1 << width) - 1, 1 << (width - 1),
                             (1 << (width - 1)) - 1], dtype=np.uint64)
        a = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
        pick = rng.random(n) < 0.25
        a[pick] = rng.choice(specials, size=int(pick.sum()))
        return a, None
    choice = rng.choice(sorted(kinds), size=n)
    a = np.zeros(n, dtype=np.uint64)
    b = np.zeros(n, dtype=np.uint64)
    for kind in np.unique(choice):
        at = choice == kind
        count = int(at.sum())
        if kind == "cancel":
            # Same exponent, either sign, only the low mantissa bits differ:
            # deep cancellation for add and sub alike.
            a[at] = _float_operand(op, "values", rng, count)
            low = rng.integers(0, 1 << 8, size=count, dtype=np.uint64)
            flip = rng.integers(0, 2, size=count, dtype=np.uint64)
            b[at] = (a[at] ^ low) ^ (flip << _u(op.fmt.sign_bit))
        else:
            a[at] = _float_operand(op, kind, rng, count)
            b[at] = _float_operand(op, str(rng.choice(sorted(kinds))),
                                   rng, count)
    if not op.has_two_operands:
        return a, None
    return a, b


def _assert_masks_identical(actual, expected):
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name].dtype == np.uint64
        np.testing.assert_array_equal(actual[name], expected[name],
                                      err_msg=name)


# -- the oracle ---------------------------------------------------------------

class TestErrorMasksMatchReference:
    @settings(max_examples=150)
    @given(op=st.sampled_from(ALL_OPS),
           kinds=st.sets(st.sampled_from(KINDS), min_size=1),
           points=st.sampled_from(sorted(POINT_LISTS)),
           n=st.integers(0, 96),
           seed=st.integers(0, 2**32 - 1))
    def test_random_streams(self, op, kinds, points, n, seed):
        a, b = _operands(op, kinds, np.random.default_rng(seed), n)
        pts = POINT_LISTS[points]
        _assert_masks_identical(
            DEFAULT_MODEL.error_masks(op, a, b, pts),
            _ref_error_masks(DEFAULT_MODEL, op, a, b, pts))

    @pytest.mark.parametrize("points", sorted(POINT_LISTS))
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.value)
    def test_every_op_and_point_list(self, op, points):
        a, b = _operands(op, KINDS, np.random.default_rng(2021), 3000)
        pts = POINT_LISTS[points]
        _assert_masks_identical(
            DEFAULT_MODEL.error_masks(op, a, b, pts),
            _ref_error_masks(DEFAULT_MODEL, op, a, b, pts))

    @pytest.mark.parametrize("op", [FpOp.ADD_S, FpOp.SUB_S, FpOp.MUL_S])
    def test_deep_point_fails_single_precision(self, op):
        a, b = _operands(op, ["values"], np.random.default_rng(7), 2000)
        assert math.isfinite(DEFAULT_MODEL.k_star(op, DEEP))
        assert DEFAULT_MODEL.config.mantissa_params(
            FpOp.MUL_D).k_star(DEFAULT_MODEL.threshold(DEEP)) == 1.0
        masks = DEFAULT_MODEL.error_masks(op, a, b, [DEEP])["DEEP"]
        assert np.count_nonzero(masks) > 0


class TestKernelPiecesMatchReference:
    @settings(max_examples=200)
    @given(width=st.integers(1, 63), n=st.integers(0, 64),
           seed=st.integers(0, 2**32 - 1), ones=st.booleans())
    def test_csa_accumulate(self, width, n, seed, ones):
        rng = np.random.default_rng(seed)
        top = 1 << width
        siga = rng.integers(0, top, size=n, dtype=np.uint64)
        sigb = rng.integers(0, top, size=n, dtype=np.uint64)
        if ones:
            siga[::2] = top - 1
            sigb[::3] = top - 1
        actual = stages._csa_accumulate(siga, sigb, width)
        expected = _ref_csa_accumulate(siga, sigb, width)
        for got, want in zip(actual, expected):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=200)
    @given(width=st.integers(1, 64), n=st.integers(0, 64),
           seed=st.integers(0, 2**32 - 1), chained=st.booleans(),
           specs=st.lists(st.one_of(st.integers(1, 70),
                                    st.tuples(st.integers(1, 70),
                                              st.integers(0, 8))),
                          min_size=1, max_size=4))
    def test_run_late_mask(self, width, n, seed, chained, specs):
        """Scalar depths and per-element depth ranges, any order."""
        rng = np.random.default_rng(seed)
        word = _u((1 << width) - 1)
        carry = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        carry |= rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        carry &= word
        prop = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        if chained:  # every carry propagates: runs as long as the carries
            prop |= carry
        k_stars = [spec if isinstance(spec, int) else
                   rng.integers(spec[0], spec[0] + spec[1] + 1, size=n)
                   for spec in specs]
        actual = timing._run_late_mask(carry, prop, k_stars, width)
        for got, ks in zip(actual, k_stars):
            full = ks if isinstance(ks, np.ndarray) else np.full(
                n, ks, dtype=np.int64)
            np.testing.assert_array_equal(
                got, _ref_run_late_mask(carry, prop, full, width))

    @settings(max_examples=200)
    @given(sig_width=st.sampled_from([24, 53]), n=st.integers(0, 48),
           seed=st.integers(0, 2**32 - 1),
           k_stars=st.lists(st.floats(0.5, 120.0), min_size=1,
                            max_size=4))
    def test_run_late_mask128(self, sig_width, n, seed, k_stars):
        rng = np.random.default_rng(seed)
        words = [rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
                 for _ in range(4)]
        carry_lo, carry_hi = words[0] | words[1], words[1] & _u((1 << 42) - 1)
        prop_lo, prop_hi = words[2] | carry_lo, words[3]
        width = 2 * sig_width
        weight = DEFAULT_MODEL.config.mul_column_weight
        columns = [timing._mul_column_masks(sig_width, ks, weight)
                   for ks in k_stars]
        actual = timing._run_late_mask128(carry_lo, carry_hi, prop_lo,
                                          prop_hi, k_stars, width, columns)
        for (got_lo, got_hi), ks, cols in zip(actual, k_stars, columns):
            assert cols == _ref_mul_column_masks(DEFAULT_MODEL, sig_width, ks)
            want_lo, want_hi = _ref_run_late_mask128(
                carry_lo, carry_hi, prop_lo, prop_hi, ks, width, cols)
            np.testing.assert_array_equal(got_lo, want_lo)
            np.testing.assert_array_equal(got_hi, want_hi)

    @settings(max_examples=200)
    @given(values=st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_popcounts(self, values):
        array = np.array(values, dtype=np.uint64)
        for new, ref in ((count_ones, _ref_count_ones),
                         (bit_length64, _ref_bit_length64)):
            got = new(array)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, ref(array))
        # The input is never modified in place.
        np.testing.assert_array_equal(array,
                                      np.array(values, dtype=np.uint64))

    @settings(max_examples=200)
    @given(width=st.sampled_from([13, 32, 64]),
           values=st.lists(st.integers(1, 2**64 - 1), max_size=64))
    def test_per_bit_counts(self, width, values):
        masks = np.array(values, dtype=np.uint64) & _u((1 << width) - 1)
        masks = masks[masks != 0]
        got = _per_bit_counts(masks, width)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _ref_per_bit_counts(masks, width))


#: sha256 over the [VR15, VR20, STRESS, DEEP] masks of a fixed 4096-pair
#: stream per instruction, as built by the per-point kernel.
PINNED_DIGESTS = {
    "fp.add.d":
        "bd1aca7b1446e59a95cf751571974b2b7443af18a6f868e7148f34dcbba45e10",
    "fp.add.s":
        "753d35c4237a258b5243464ecd697162ec3b405c8bedb164c2a59ad9c9a5ad2f",
    "fp.div.d":
        "138a5dbf0beb73af53bd55d7175b3a10a2963572ee11c423c7d3e6218f421969",
    "fp.div.s":
        "23cea1b42444fba7b9e7c2cb2ef9572eb939da1f00f80ba413482da03f322fe2",
    "fp.ftoi.d":
        "6b651cad18b65de3f9dc6cc988e98c6238c84a57fc0446c533fcc900cdf42826",
    "fp.ftoi.s":
        "1ea041ca05f66050c3c480b80a4bb49b2af09735a937f35c90b2595f60e1e9e8",
    "fp.itof.d":
        "7fc975405f1515aafc3c70c67f60639e382d0db7bc6515830262c207c8aa9f13",
    "fp.itof.s":
        "5025ccc05f5a36060ba00a72144b084dad5ba8de835bc7e0e127cb5e12322c22",
    "fp.mul.d":
        "94dec9e639d60e57a983c8282fba9199f95b3c580a39af467a784680e63a754b",
    "fp.mul.s":
        "05d9bb14036a6dcf1ffdcc90127217fdc7433bd582905e17c62e3fdf31ea0406",
    "fp.sub.d":
        "78c1b3391eb9734beb7d204ac5f501453f0a2b1b2bc9be52b748bb06fe7bbb81",
    "fp.sub.s":
        "8b2fc461ba78a540ea76a69670329886718204fa37cc387229c34aec5d26c233",
}


def _stream_digest(op: FpOp) -> str:
    a, b = _operands(op, KINDS, np.random.default_rng(2021), 4096)
    masks = DEFAULT_MODEL.error_masks(op, a, b, [VR15, VR20, STRESS, DEEP])
    h = hashlib.sha256()
    for name, mask in masks.items():
        h.update(name.encode())
        h.update(mask.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.value)
def test_fixed_stream_digests_pinned(op):
    assert _stream_digest(op) == PINNED_DIGESTS[op.value]
