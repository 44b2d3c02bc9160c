"""Data-dependent dynamic-timing model of the FPU (the DTA backend).

This is the vectorised substitute for post-place-and-route gate-level
simulation (see DESIGN.md): given arrays of operand patterns, it computes
the exact per-bit XOR *bitmask* of timing errors each instruction would
exhibit at a given voltage-reduction level.

Model
-----
Each functional unit is a population of timing paths.  Static timing
analysis of our gate-level netlists (and of any real datapath) shows path
delays crowding toward the critical delay — the "timing wall": the slack
of the path activated at carry/logic depth ``k`` follows

    slack(k) = s_min + A * exp(-(k - 1) / tau)          (fraction of CLK)

where ``s_min`` is the unit's critical-path slack, ``A`` the slack range,
and ``tau`` the crowding constant.  Undervolting multiplies all delays by
``f(V)`` (alpha-power law), so a path fails iff

    (1 - slack(k)) * f(V) > 1   <=>   slack(k) < th(V) = 1 - 1/f(V),

giving a *failure depth threshold* ``k*(V)``: any bit whose value arrives
via an activated chain of depth >= k* is captured stale.  Activated depths
come from the carry/borrow words extracted by :mod:`repro.fpu.stages`
(run-of-ones length ending at bit p == ripple depth of the carry into p),
so failing bits, their multiplicity and their positions are all functions
of the actual operand data — the property the paper's WA-model exists to
capture.

Nominal operation never fails by construction (th(V_nom) = 0 < s_min), and
the calibration constants below place the 12 instructions in the regime
the paper reports: fp-mul and fp-sub fail at VR15, fp-add and fp-div join
at VR20, conversions and all single-precision instructions stay clean, and
random-operand error ratios land in the 1e-3 (VR15) / 1e-2 (VR20) decades.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.circuit.liberty import OperatingPoint, TECHNOLOGY, VoltageScalingModel
from repro.fpu import ops, stages
from repro.fpu.formats import FpOp
from repro.utils.bitops import bit_length64
from repro import telemetry

_U = np.uint64


def _u(k: int) -> np.uint64:
    return np.uint64(k)


@dataclass(frozen=True)
class PathClass:
    """Slack-curve parameters of one population of timing paths."""

    slack_min: float
    tau: float
    amplitude: float = 0.76

    def k_star(self, threshold: float) -> float:
        """Smallest activation depth that fails at slack threshold ``th``.

        Returns ``inf`` when even the deepest path keeps positive slack
        (no errors possible at this voltage), and clamps at 1 when every
        activation fails (deep undervolting, beyond the paper's points).
        """
        margin = threshold - self.slack_min
        if margin <= 0:
            return math.inf
        if margin >= self.amplitude:
            return 1.0
        return 1.0 + self.tau * math.log(self.amplitude / margin)


@dataclass(frozen=True)
class TimingConfig:
    """Calibrated path-class parameters of the marocchino-like FPU.

    ``mantissa`` keys the main datapath per instruction kind; ``exponent``
    the exponent-update path; ``round`` the rounding incrementer;
    ``sign`` the sign-decision comparator of effective subtraction.
    ``single_slack_bonus`` is the extra slack of the narrower single-
    precision datapath (why SP instructions are error-free in Fig. 7).
    ``norm_depth_weight`` converts one position of post-normalisation
    shift into equivalent carry-depth units (stage-merged macro model).
    ``mul_column_weight`` is the extra array depth of the multiplier's
    middle columns (peak height of the carry-save array).
    """

    mantissa: Dict[str, PathClass] = field(default_factory=lambda: {
        "add": PathClass(slack_min=0.190, tau=5.6),
        "sub": PathClass(slack_min=0.060, tau=9.8),
        "mul": PathClass(slack_min=0.020, tau=8.0),
        "div": PathClass(slack_min=0.168, tau=5.5, amplitude=0.60),
        "i2f": PathClass(slack_min=0.450, tau=4.0, amplitude=0.40),
        "f2i": PathClass(slack_min=0.400, tau=4.0, amplitude=0.40),
    })
    exponent: Dict[str, PathClass] = field(default_factory=lambda: {
        "add": PathClass(slack_min=0.200, tau=3.2, amplitude=0.60),
        "sub": PathClass(slack_min=0.180, tau=3.2, amplitude=0.60),
        "mul": PathClass(slack_min=0.300, tau=3.2, amplitude=0.60),
        "div": PathClass(slack_min=0.300, tau=3.2, amplitude=0.60),
    })
    round: PathClass = PathClass(slack_min=0.250, tau=7.0)
    single_slack_bonus: float = 0.22
    norm_depth_weight: float = 1.2
    mul_column_weight: int = 3

    def mantissa_params(self, op: FpOp) -> PathClass:
        base = self.mantissa[op.kind]
        if op.is_double:
            return base
        return PathClass(base.slack_min + self.single_slack_bonus,
                         base.tau, base.amplitude)

    def exponent_params(self, op: FpOp) -> Optional[PathClass]:
        base = self.exponent.get(op.kind)
        if base is None or op.is_double:
            return base
        return PathClass(base.slack_min + self.single_slack_bonus,
                         base.tau, base.amplitude)

    def aux_params(self, params: PathClass, op: FpOp) -> PathClass:
        if op.is_double:
            return params
        return PathClass(params.slack_min + self.single_slack_bonus,
                         params.tau, params.amplitude)


DEFAULT_CONFIG = TimingConfig()


def _run_late_mask(carry: np.ndarray, prop: np.ndarray,
                   k_stars: Sequence, width: int) -> List[np.ndarray]:
    """Bits whose carry arrived via a ripple of >= k_star propagate steps.

    ``carry`` holds the carry/borrow-in at every bit (``a ^ b ^ result``),
    ``prop`` the positions through which an incoming carry ripples onward
    (``a ^ b`` for addition, ``~(a ^ b)`` for subtraction).  A carry into
    bit p has ripple depth k iff bits p-1 .. p-k+1 all both carry and
    propagate — a locally *generated* carry is fast and breaks the chain,
    which is why depth is counted along carry & prop runs, not raw carry
    runs.

    One pass serves every operating point: ``k_stars`` holds one failure
    depth per point, an int or a per-element int64 array (values >= 1;
    any value > width means no failures).  The bits still carried at
    depth k, ``acc_k``, only shrink as k grows, so the late bits of
    depth >= k* are exactly ``acc_{k*}``.
    """
    lates = [np.zeros_like(carry) for _ in k_stars]
    if carry.size == 0:
        return lates
    bounds = [(int(ks.min()), int(ks.max())) if isinstance(ks, np.ndarray)
              else (ks, ks) for ks in k_stars]
    k_last = min(width, max((hi for _, hi in bounds), default=0))
    if k_last < 1:
        return lates
    chain = carry & prop
    acc = carry.copy()
    for k in range(1, k_last + 1):
        if k > 1:
            chain <<= _u(1)  # chain << (k - 1)
            acc &= chain
        for late, ks, (lo, hi) in zip(lates, k_stars, bounds):
            if lo <= k <= hi:
                np.copyto(late, acc, where=(ks == k) if lo < hi else True)
        if not acc.any():
            break
    return lates


def _run_late_mask128(carry_lo: np.ndarray, carry_hi: np.ndarray,
                      prop_lo: np.ndarray, prop_hi: np.ndarray,
                      k_stars: Sequence[float], width: int,
                      column_masks: Sequence[Mapping[int, tuple]]):
    """Two-limb variant for the multiplier's 106-bit CPA carry word.

    ``k_stars`` holds one finite failure depth per operating point, and
    one (lo, hi) pair comes back per point.  ``column_masks``
    gives, per point, a map from depth k to the (lo, hi) bit-mask of
    positions whose array-column weight makes them fail already at run
    depth k (middle columns of the carry-save array are deeper, hence
    fail earlier).
    """
    lates = [(np.zeros_like(carry_lo), np.zeros_like(carry_hi))
             for _ in k_stars]
    k_bases = [max(1, int(math.ceil(ks))) for ks in k_stars]
    acc_lo, acc_hi = carry_lo.copy(), carry_hi.copy()
    sh_lo = carry_lo & prop_lo
    sh_hi = carry_hi & prop_hi
    tmp = np.empty_like(carry_lo)
    for k in range(1, min(width, max(k_bases)) + 1):
        if k > 1:
            np.right_shift(sh_lo, _u(63), out=tmp)
            sh_hi <<= _u(1)
            sh_hi |= tmp
            sh_lo <<= _u(1)
            acc_lo &= sh_lo
            acc_hi &= sh_hi
        for (late_lo, late_hi), k_base, columns in zip(lates, k_bases,
                                                      column_masks):
            if k > k_base:
                continue
            if k in columns:
                m_lo, m_hi = columns[k]
                np.bitwise_and(acc_lo, _u(m_lo), out=tmp)
                late_lo |= tmp
                np.bitwise_and(acc_hi, _u(m_hi), out=tmp)
                late_hi |= tmp
            if k == k_base:
                late_lo |= acc_lo
                late_hi |= acc_hi
        if not (acc_lo.any() or acc_hi.any()):
            break
    return lates


def _live(params: PathClass, thresholds: Sequence[float],
          masks: List[np.ndarray]) -> List[tuple]:
    """(mask, k*) of every point at which ``params``' paths can fail."""
    k_stars = (params.k_star(threshold) for threshold in thresholds)
    return [(mask, ks) for mask, ks in zip(masks, k_stars)
            if not math.isinf(ks)]


@functools.lru_cache(maxsize=64)
def _mul_column_masks(sig_width: int, k_star: float,
                      weight_cap: int) -> Mapping[int, tuple]:
    """Depth k -> product-bit mask failing at k due to column height.

    Memoised, so the map is read-only: every caller shares it.
    """
    product_bits = 2 * sig_width
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
    return types.MappingProxyType(out)


class TimingModel:
    """The dynamic-timing-analysis engine used by model development.

    ``error_masks`` is the workhorse: for a batch of operand patterns it
    returns, per operating point, the architectural XOR bitmask of every
    instruction (0 = instruction met timing).
    """

    def __init__(self, config: TimingConfig = DEFAULT_CONFIG,
                 technology: VoltageScalingModel = TECHNOLOGY):
        self.config = config
        self.technology = technology

    # -- voltage mapping ---------------------------------------------------------
    def threshold(self, point: OperatingPoint) -> float:
        """Slack threshold th = 1 - 1/f; paths slacker than th survive.

        The delay factor f maps the point's supply voltage through the
        technology's voltage curve.
        """
        factor = self.technology.delay_factor(point.voltage)
        return max(0.0, 1.0 - 1.0 / factor)

    def k_star(self, op: FpOp, point: OperatingPoint) -> float:
        """Failure depth threshold of the op's mantissa path at ``point``."""
        return self.config.mantissa_params(op).k_star(self.threshold(point))

    def _path_classes(self, op: FpOp) -> List[PathClass]:
        """Every path class that can contribute bits to ``error_masks``.

        Mirrors the per-kind mask builders below: add/sub/mul combine the
        mantissa datapath with the rounding incrementer and the exponent
        update; div and the conversions are mantissa-only.
        """
        cfg = self.config
        classes = [cfg.mantissa_params(op)]
        if op.kind in ("add", "sub", "mul"):
            classes.append(cfg.aux_params(cfg.round, op))
            eparams = cfg.exponent_params(op)
            if eparams is not None:
                classes.append(eparams)
        return classes

    def is_error_free(self, op: FpOp, point: OperatingPoint) -> bool:
        """True when ``error_masks`` is provably all-zero at ``point``.

        Holds exactly when every contributing path class keeps positive
        slack (``k_star == inf``) at the point's threshold: each mask
        builder contributes nothing under that condition, for *any*
        operand data.  The characterization pipeline uses this to skip
        DTA entirely for (op, point) pairs that cannot fail — e.g. all
        single-precision instructions and the conversions at the paper's
        VR15/VR20 levels.
        """
        threshold = self.threshold(point)
        return all(math.isinf(params.k_star(threshold))
                   for params in self._path_classes(op))

    # -- main entry point -----------------------------------------------------------
    def error_masks(self, op: FpOp, a: np.ndarray,
                    b: Optional[np.ndarray],
                    points: Sequence[OperatingPoint],
                    golden: Optional[np.ndarray] = None,
                    ) -> Dict[str, np.ndarray]:
        """Architectural error bitmasks per operating point.

        The stage signals are extracted once and every point's threshold
        is evaluated in the same run-depth passes — the vector analogue of
        re-running the scaled gate-level simulation instance per voltage
        (Section III.A.1).
        """
        a = np.asarray(a, dtype=np.uint64)
        if golden is None:
            golden = ops.golden(op, a, b)
        kind = op.kind
        if kind in ("add", "sub"):
            signals = stages.addsub_signals(op, a, b, golden)
            build = self._addsub_masks
        elif kind == "mul":
            signals = stages.mul_signals(op, a, b, golden)
            build = self._mul_masks
        elif kind == "div":
            signals = stages.div_signals(op, a, b, golden)
            build = self._div_masks
        else:
            signals = stages.conv_signals(op, a, golden)
            build = self._conv_masks
        masks = build(op, signals, [self.threshold(p) for p in points])
        invalid = ~signals.valid
        out: Dict[str, np.ndarray] = {}
        for point, mask in zip(points, masks):
            mask[invalid] = 0
            out[point.name] = mask
            if telemetry.enabled():
                telemetry.count("fpu.timing.masks", int(mask.size))
                telemetry.count("fpu.timing.faulty",
                                int(np.count_nonzero(mask)))
        return out

    # -- per-kind mask builders --------------------------------------------------------
    # Each builder takes every point's slack threshold at once and returns
    # one fresh mask per threshold: run-depth passes and per-chunk terms
    # are shared by all points.
    def _addsub_masks(self, op: FpOp, sig: stages.AddSubSignals,
                      thresholds: Sequence[float]) -> List[np.ndarray]:
        fmt = op.fmt
        cfg = self.config
        n = sig.carry_word.shape[0]
        mant_mask = _u((1 << fmt.mantissa_bits) - 1)
        width = fmt.mantissa_bits + 1 + 3 + 1
        masks = [np.zeros(n, dtype=np.uint64) for _ in thresholds]

        live = _live(cfg.mantissa_params(op), thresholds, masks)
        if live:
            # Post-normalisation shifter depth (log2 mux levels) merges
            # into the effective path depth of cancellation-heavy subtracts.
            offset = np.floor(
                cfg.norm_depth_weight * np.log2(1.0 + sig.norm_shift)
            )
            lates = _run_late_mask(
                sig.carry_word, sig.prop_word,
                [np.maximum(1, np.ceil(ks - offset)).astype(np.int64)
                 for _, ks in live],
                width)
            # Elementwise late >> sigma (left shift for negative sigma).
            right_shift = sig.sigma >= 0
            right = np.clip(sig.sigma, 0, 63).astype(np.uint64)
            left = np.clip(-sig.sigma, 0, 63).astype(np.uint64)
            sign_hit = np.empty(n, dtype=bool)
            shifted = np.empty(n, dtype=np.uint64)
            for mask, _ in live:
                late = lates.pop(0)
                np.left_shift(late, left, out=shifted)
                np.right_shift(late, right, out=shifted, where=right_shift)
                shifted &= mant_mask
                mask |= shifted
                # A ripple that reaches the top of the mantissa adder races
                # the sign/normalisation decision: the sampled result has the
                # wrong sign (the operand-swap mux latched the stale
                # comparison).
                late >>= _u(fmt.mantissa_bits + 3)
                np.not_equal(late, 0, out=sign_hit)
                sign_hit &= sig.effective_sub
                np.bitwise_or(mask, _u(1 << fmt.sign_bit), out=mask,
                              where=sign_hit)
                del late

        self._round_masks(op, sig.round_diff, thresholds, masks)
        self._exponent_masks(op, sig.exp_carry, sig.exp_prop, thresholds,
                             masks)
        return masks

    def _round_masks(self, op: FpOp, round_diff: np.ndarray,
                     thresholds: Sequence[float],
                     masks: List[np.ndarray]) -> None:
        """Rounding incrementer: OR the round extent into each mask."""
        live = _live(self.config.aux_params(self.config.round, op),
                     thresholds, masks)
        if live:
            extent = bit_length64(round_diff)
        for mask, kr in live:
            np.bitwise_or(mask, round_diff, out=mask, where=extent >= kr)

    def _exponent_masks(self, op: FpOp, exp_carry: np.ndarray,
                        exp_prop: np.ndarray, thresholds: Sequence[float],
                        masks: List[np.ndarray]) -> None:
        """Exponent-update path: OR its late bits into each mask."""
        eparams = self.config.exponent_params(op)
        if eparams is None:
            return
        live = _live(eparams, thresholds, masks)
        lates = _run_late_mask(exp_carry, exp_prop,
                               [max(1, math.ceil(ke)) for _, ke in live],
                               op.fmt.exponent_bits)
        for (mask, _), late in zip(live, lates):
            late <<= _u(op.fmt.exponent_lo)
            mask |= late

    def _mul_masks(self, op: FpOp, sig: stages.MulSignals,
                   thresholds: Sequence[float]) -> List[np.ndarray]:
        fmt = op.fmt
        cfg = self.config
        n = sig.cpa_carry_lo.shape[0]
        mant_mask = _u((1 << fmt.mantissa_bits) - 1)
        sig_width = fmt.mantissa_bits + 1
        masks = [np.zeros(n, dtype=np.uint64) for _ in thresholds]

        live = _live(cfg.mantissa_params(op), thresholds, masks)
        if live:
            lates = _run_late_mask128(
                sig.cpa_carry_lo, sig.cpa_carry_hi,
                sig.cpa_prop_lo, sig.cpa_prop_hi,
                [ks for _, ks in live], 2 * sig_width,
                [_mul_column_masks(sig_width, ks, cfg.mul_column_weight)
                 for _, ks in live])
            # Extract the architectural mantissa window (sigma in [23, 53]).
            s = np.clip(sig.sigma, 0, 63).astype(np.uint64)
            up = np.clip(64 - sig.sigma, 1, 63).astype(np.uint64)
            has_hi = sig.sigma > 0
            for mask, _ in live:
                late_lo, late_hi = lates.pop(0)
                late_lo >>= s
                late_hi <<= up
                np.bitwise_or(late_lo, late_hi, out=late_lo, where=has_hi)
                late_lo &= mant_mask
                mask |= late_lo
                del late_lo, late_hi

        self._round_masks(op, sig.round_diff, thresholds, masks)
        self._exponent_masks(op, sig.exp_carry, sig.exp_prop, thresholds,
                             masks)
        return masks

    def _div_masks(self, op: FpOp, sig: stages.DivSignals,
                   thresholds: Sequence[float]) -> List[np.ndarray]:
        fmt = op.fmt
        n = sig.borrow_word.shape[0]
        mant_mask = _u((1 << fmt.mantissa_bits) - 1)
        masks = [np.zeros(n, dtype=np.uint64) for _ in thresholds]

        live = _live(self.config.mantissa_params(op), thresholds, masks)
        k_effs = [max(1, math.ceil(ks)) for _, ks in live]
        lates_b = _run_late_mask(sig.borrow_word, sig.borrow_prop, k_effs,
                                 fmt.mantissa_bits + 1)
        # Digit-selection stress: equal-run words chain through themselves
        # (every position of the run keeps selection hot).
        lates_q = _run_late_mask(sig.quotient_runs, sig.quotient_runs,
                                 k_effs, fmt.mantissa_bits - 1)
        for mask, _ in live:
            late = lates_b.pop(0)
            late |= lates_q.pop(0)
            late &= mant_mask
            # Iterative divider: once one iteration misses timing, the
            # stale partial remainder corrupts every subsequent (lower)
            # quotient digit — flip where the stale digits differ, which
            # the golden mantissa's own bit pattern stands in for.
            top = bit_length64(late)
            below = np.where(
                late != 0,
                (_u(1) << np.clip(top - 1, 0, 63).astype(np.uint64)) - _u(1),
                _u(0),
            )
            mask |= late | (below & sig.golden_mantissa)
        return masks

    def _conv_masks(self, op: FpOp, sig: stages.ConvSignals,
                    thresholds: Sequence[float]) -> List[np.ndarray]:
        params = self.config.mantissa_params(op)
        masks = []
        for threshold in thresholds:
            ks = params.k_star(threshold)
            if math.isinf(ks):
                masks.append(np.zeros(sig.shift_depth.shape[0],
                                      dtype=np.uint64))
                continue
            late = sig.shift_depth >= ks
            # A late shifter level leaves the low output bits stale.
            extent = np.clip(sig.shift_depth - np.floor(ks) + 1, 1, 63)
            burst = (_u(1) << extent.astype(np.uint64)) - _u(1)
            masks.append(np.where(late, burst, _u(0)))
        return masks


#: Shared model instance with the calibrated default configuration.
DEFAULT_MODEL = TimingModel()
