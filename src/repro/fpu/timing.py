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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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


def _run_late_mask(carry: np.ndarray, prop: np.ndarray, k_star: np.ndarray,
                   width: int) -> np.ndarray:
    """Bits whose carry arrived via a ripple of >= k_star propagate steps.

    ``carry`` holds the carry/borrow-in at every bit (``a ^ b ^ result``),
    ``prop`` the positions through which an incoming carry ripples onward
    (``a ^ b`` for addition, ``~(a ^ b)`` for subtraction).  A carry into
    bit p has ripple depth k iff bits p-1 .. p-k+1 all both carry and
    propagate — a locally *generated* carry is fast and breaks the chain,
    which is why depth is counted along carry & prop runs, not raw carry
    runs.  ``k_star`` is per-element (int64; any value > width means no
    failures for that element).
    """
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


def _run_late_mask128(carry_lo: np.ndarray, carry_hi: np.ndarray,
                      prop_lo: np.ndarray, prop_hi: np.ndarray,
                      k_star: float, width: int,
                      column_masks: Optional[Dict[int, "tuple"]] = None):
    """Two-limb variant for the multiplier's 106-bit CPA carry word.

    ``column_masks`` maps a depth k to the (lo, hi) bit-mask of positions
    whose array-column weight makes them fail already at run depth k
    (middle columns of the carry-save array are deeper, hence fail
    earlier).
    """
    late_lo = np.zeros_like(carry_lo)
    late_hi = np.zeros_like(carry_hi)
    if math.isinf(k_star):
        return late_lo, late_hi
    acc_lo, acc_hi = carry_lo.copy(), carry_hi.copy()
    sh_lo = carry_lo & prop_lo
    sh_hi = carry_hi & prop_hi
    k_base = max(1, int(math.ceil(k_star)))
    min_k = k_base
    if column_masks:
        min_k = max(1, min(column_masks))
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


def _shift_signed(word: np.ndarray, amount: np.ndarray,
                  mask: int) -> np.ndarray:
    """Elementwise ``word >> amount`` (left shift for negative), masked."""
    right = np.clip(amount, 0, 63).astype(np.uint64)
    left = np.clip(-amount, 0, 63).astype(np.uint64)
    out = np.where(amount >= 0, word >> right, word << left)
    return out & _u(mask)


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

        Plain operating points map through the technology's voltage
        curve; composed stress points (:mod:`repro.circuit.variation` —
        aging, temperature, overclocking) carry their delay factor
        directly.
        """
        factor = getattr(point, "factor", None)
        if factor is None:
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

        The stage signals are extracted once and evaluated against each
        point's threshold — the vector analogue of re-running the scaled
        gate-level simulation instance per voltage (Section III.A.1).
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
        out: Dict[str, np.ndarray] = {}
        for point in points:
            mask = build(op, signals, self.threshold(point))
            mask = np.where(signals.valid, mask, _u(0))
            out[point.name] = mask
            if telemetry.enabled():
                telemetry.count("fpu.timing.masks", int(mask.size))
                telemetry.count("fpu.timing.faulty",
                                int(np.count_nonzero(mask)))
        return out

    # -- per-kind mask builders --------------------------------------------------------
    def _addsub_masks(self, op: FpOp, sig: stages.AddSubSignals,
                      threshold: float) -> np.ndarray:
        fmt = op.fmt
        cfg = self.config
        n = sig.carry_word.shape[0]
        mant_mask = (1 << fmt.mantissa_bits) - 1
        width = fmt.mantissa_bits + 1 + 3 + 1

        mask = np.zeros(n, dtype=np.uint64)
        params = cfg.mantissa_params(op)
        ks = params.k_star(threshold)
        if not math.isinf(ks):
            # Post-normalisation shifter depth (log2 mux levels) merges
            # into the effective path depth of cancellation-heavy subtracts.
            offset = np.floor(
                cfg.norm_depth_weight * np.log2(1.0 + sig.norm_shift)
            )
            k_eff = np.maximum(
                1, np.ceil(ks - offset)
            ).astype(np.int64)
            late = _run_late_mask(sig.carry_word, sig.prop_word, k_eff, width)
            mask |= _shift_signed(late, sig.sigma, mant_mask)
            # A ripple that reaches the top of the mantissa adder races the
            # sign/normalisation decision: the sampled result has the wrong
            # sign (the operand-swap mux latched the stale comparison).
            top_late = (late >> _u(fmt.mantissa_bits + 3)) != 0
            mask |= np.where(top_late & sig.effective_sub,
                             _u(1 << fmt.sign_bit), _u(0))

        # Rounding incrementer.
        rparams = cfg.aux_params(cfg.round, op)
        kr = rparams.k_star(threshold)
        if not math.isinf(kr):
            extent = bit_length64(sig.round_diff)
            mask |= np.where(extent >= kr, sig.round_diff, _u(0))

        # Exponent-update path.
        eparams = cfg.exponent_params(op)
        if eparams is not None:
            ke = eparams.k_star(threshold)
            if not math.isinf(ke):
                k_eff = np.full(n, max(1, math.ceil(ke)), dtype=np.int64)
                late_e = _run_late_mask(sig.exp_carry, sig.exp_prop, k_eff,
                                        fmt.exponent_bits)
                mask |= late_e << _u(fmt.exponent_lo)
        return mask

    def _mul_masks(self, op: FpOp, sig: stages.MulSignals,
                   threshold: float) -> np.ndarray:
        fmt = op.fmt
        cfg = self.config
        n = sig.cpa_carry_lo.shape[0]
        mant_mask = (1 << fmt.mantissa_bits) - 1
        width = 2 * (fmt.mantissa_bits + 1)

        mask = np.zeros(n, dtype=np.uint64)
        params = cfg.mantissa_params(op)
        ks = params.k_star(threshold)
        if not math.isinf(ks):
            column_masks = self._mul_column_masks(fmt.mantissa_bits + 1, ks)
            late_lo, late_hi = _run_late_mask128(
                sig.cpa_carry_lo, sig.cpa_carry_hi,
                sig.cpa_prop_lo, sig.cpa_prop_hi, ks, width, column_masks
            )
            # Extract the architectural mantissa window (sigma in [23, 53]).
            s = np.clip(sig.sigma, 0, 63).astype(np.uint64)
            up = np.clip(64 - sig.sigma, 1, 63).astype(np.uint64)
            window = (late_lo >> s) | np.where(
                sig.sigma > 0, late_hi << up, _u(0)
            )
            mask |= window & _u(mant_mask)

        rparams = cfg.aux_params(cfg.round, op)
        kr = rparams.k_star(threshold)
        if not math.isinf(kr):
            extent = bit_length64(sig.round_diff)
            mask |= np.where(extent >= kr, sig.round_diff, _u(0))

        eparams = cfg.exponent_params(op)
        if eparams is not None:
            ke = eparams.k_star(threshold)
            if not math.isinf(ke):
                k_eff = np.full(n, max(1, math.ceil(ke)), dtype=np.int64)
                late_e = _run_late_mask(sig.exp_carry, sig.exp_prop, k_eff,
                                        fmt.exponent_bits)
                mask |= late_e << _u(fmt.exponent_lo)
        return mask

    def _mul_column_masks(self, sig_width: int, k_star: float):
        """Depth k -> product-bit mask failing at k due to column height."""
        if math.isinf(k_star):
            return None
        product_bits = 2 * sig_width
        weight_cap = self.config.mul_column_weight
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

    def _div_masks(self, op: FpOp, sig: stages.DivSignals,
                   threshold: float) -> np.ndarray:
        fmt = op.fmt
        cfg = self.config
        n = sig.borrow_word.shape[0]
        mant_mask = (1 << fmt.mantissa_bits) - 1

        mask = np.zeros(n, dtype=np.uint64)
        params = cfg.mantissa_params(op)
        ks = params.k_star(threshold)
        if not math.isinf(ks):
            k_eff = np.full(n, max(1, math.ceil(ks)), dtype=np.int64)
            late_b = _run_late_mask(sig.borrow_word, sig.borrow_prop, k_eff,
                                    fmt.mantissa_bits + 1)
            # Digit-selection stress: equal-run words chain through
            # themselves (every position of the run keeps selection hot).
            late_q = _run_late_mask(sig.quotient_runs, sig.quotient_runs,
                                    k_eff, fmt.mantissa_bits - 1)
            late = (late_b | late_q) & _u(mant_mask)
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
        return mask

    def _conv_masks(self, op: FpOp, sig: stages.ConvSignals,
                    threshold: float) -> np.ndarray:
        cfg = self.config
        n = sig.shift_depth.shape[0]
        params = cfg.mantissa_params(op)
        ks = params.k_star(threshold)
        mask = np.zeros(n, dtype=np.uint64)
        if math.isinf(ks):
            return mask
        late = sig.shift_depth >= ks
        # A late shifter level leaves the low output bits stale.
        extent = np.clip(sig.shift_depth - np.floor(ks) + 1, 1, 63)
        burst = (_u(1) << extent.astype(np.uint64)) - _u(1)
        return np.where(late, burst, _u(0))


#: Shared model instance with the calibrated default configuration.
DEFAULT_MODEL = TimingModel()
