"""Edge-case audit of the shared Wilson/AVM statistics helpers.

The adaptive stopping rule turned these helpers from display code into
decision code, so their boundary behaviour is now load-bearing: the
sequential-equivalence harness does inclusive ``lo <= avm <= hi``
membership tests, and a few ulps of float error at the degenerate
endpoints (0/n, n/n) would flip verdicts.  This suite pins the exact
endpoint values, the symmetry and monotonicity structure, and the
extreme-confidence behaviour that ``test_wilson_stats`` (the display
-oriented suite) leaves implicit.
"""

import math

import pytest

from repro.observe.stats import avm_estimate
from repro.utils.stats import wilson_interval


class TestExactEndpoints:
    @pytest.mark.parametrize("trials", [1, 2, 6, 50, 1068])
    def test_all_failures_upper_bound_exactly_one(self, trials):
        """At successes == trials the Wilson upper bound is exactly 1 in
        real arithmetic; the implementation must pin it so inclusive
        membership tests (`avm <= hi`) hold at the boundary.  Regression:
        6/6 non-masked runs used to report hi = 0.9999999999999999 and
        fail the bench verdict-equality gate against a fixed AVM of 1.0."""
        lo, hi = wilson_interval(trials, trials)
        assert hi == 1.0
        assert 0.0 < lo < 1.0

    @pytest.mark.parametrize("trials", [1, 2, 6, 50, 1068])
    def test_zero_failures_lower_bound_exactly_zero(self, trials):
        lo, hi = wilson_interval(0, trials)
        assert lo == 0.0
        assert 0.0 < hi < 1.0

    def test_single_trial_interval_is_proper(self):
        lo0, hi0 = wilson_interval(0, 1)
        lo1, hi1 = wilson_interval(1, 1)
        assert (lo0, hi1) == (0.0, 1.0)
        assert hi0 < 1.0 and lo1 > 0.0

    def test_bounds_always_ordered_and_in_unit_interval(self):
        for trials in (1, 3, 10, 101):
            for successes in range(trials + 1):
                lo, hi = wilson_interval(successes, trials)
                assert 0.0 <= lo <= hi <= 1.0


class TestSymmetry:
    @pytest.mark.parametrize("successes,trials", [(1, 4), (3, 10),
                                                  (13, 100), (0, 7)])
    def test_interval_symmetric_under_success_failure_swap(self, successes,
                                                           trials):
        """Wilson is equivariant under p -> 1-p: the interval for k/n is
        the mirrored interval for (n-k)/n."""
        lo, hi = wilson_interval(successes, trials)
        mlo, mhi = wilson_interval(trials - successes, trials)
        assert lo == pytest.approx(1.0 - mhi, abs=1e-12)
        assert hi == pytest.approx(1.0 - mlo, abs=1e-12)


class TestMonotonicity:
    def test_width_shrinks_with_trials_at_fixed_proportion(self):
        widths = []
        for trials in (4, 16, 64, 256, 1024):
            lo, hi = wilson_interval(trials // 4, trials)
            widths.append(hi - lo)
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_width_grows_with_confidence(self):
        widths = []
        for confidence in (0.80, 0.90, 0.95, 0.99, 0.999):
            lo, hi = wilson_interval(5, 20, confidence)
            widths.append(hi - lo)
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_interval_contains_point_estimate_everywhere(self):
        for trials in (1, 5, 24, 1068):
            for successes in range(0, trials + 1, max(1, trials // 7)):
                lo, hi = wilson_interval(successes, trials)
                assert lo <= successes / trials <= hi


class TestExtremeConfidence:
    def test_near_one_confidence_still_proper(self):
        lo, hi = wilson_interval(5, 20, confidence=0.999999)
        assert 0.0 <= lo < 5 / 20 < hi <= 1.0
        assert math.isfinite(lo) and math.isfinite(hi)

    def test_near_half_confidence_narrower_than_default(self):
        # confidence -> 0.5 means z -> Phi^-1(0.75) ~ 0.674, so the
        # interval stays proper but much tighter than the 95 % default.
        lo, hi = wilson_interval(5, 20, confidence=0.500001)
        lo95, hi95 = wilson_interval(5, 20)
        assert 0.0 < lo < 5 / 20 < hi < 1.0
        assert hi - lo < (hi95 - lo95) / 2

    def test_wilson_interval_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_wilson_ci_degrades_zero_trials_only(self):
        est = avm_estimate(0, 0)
        assert (est.ci_lo, est.ci_hi) == (0.0, 0.0)
        est = avm_estimate(0, -3)
        assert (est.ci_lo, est.ci_hi) == (0.0, 0.0)
        with pytest.raises(ValueError):
            avm_estimate(-1, 10)


class TestAvmEstimateEdges:
    def test_all_non_masked_hits_exact_upper_bound(self):
        est = avm_estimate(6, 6)
        assert est.avm == 1.0
        assert est.ci_hi == 1.0
        assert est.ci_lo <= est.avm <= est.ci_hi

    def test_all_masked_hits_exact_lower_bound(self):
        est = avm_estimate(0, 6)
        assert est.avm == 0.0
        assert est.ci_lo == 0.0

    def test_confidence_parameter_threads_through(self):
        wide = avm_estimate(3, 12, confidence=0.99)
        narrow = avm_estimate(3, 12, confidence=0.80)
        assert wide.confidence == 0.99
        assert narrow.confidence == 0.80
        assert wide.half_width > narrow.half_width

    def test_pinned_exact_values_quarter(self):
        # Exact pins (full float precision) so any quiet reimplementation
        # of the score interval shows up as a diff, not a tolerance pass.
        est = avm_estimate(1, 4)
        lo, hi = est.ci_lo, est.ci_hi
        assert lo == pytest.approx(0.04559, abs=5e-5)
        assert hi == pytest.approx(0.69937, abs=5e-5)
        assert (lo, hi) == wilson_interval(1, 4)
