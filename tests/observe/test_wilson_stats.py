"""Tests for the shared AVM/Wilson statistics helpers.

Every campaign view and the HTML report must agree on one definition of
"AVM with 95 % CI"; these tests pin that definition with known values.
"""

import math

import pytest

from repro.observe.stats import (
    NON_MASKED_OUTCOMES,
    OUTCOME_ORDER,
    AvmEstimate,
    avm_estimate,
    non_masked_count,
)
from repro.utils.stats import wilson_interval


class TestWilsonCi:
    def test_matches_reference_implementation(self):
        est = avm_estimate(13, 100)
        assert (est.ci_lo, est.ci_hi) == wilson_interval(13, 100)

    def test_pinned_values_quarter_of_four(self):
        # Wilson 95 % for 1/4: classic worked example.
        lo, hi = wilson_interval(1, 4)
        assert lo == pytest.approx(0.0455, abs=1e-3)
        assert hi == pytest.approx(0.6994, abs=1e-3)

    def test_pinned_values_paper_cell_size(self):
        # The paper sizes cells at 1068 runs for a +/-3 % margin at
        # p = 0.5 - the worst case.  Verify the half-width claim.
        lo, hi = wilson_interval(534, 1068)
        assert (hi - lo) / 2.0 == pytest.approx(0.03, abs=2e-3)

    def test_zero_successes_lower_bound_is_zero(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert 0.0 < hi < 0.1

    def test_all_successes_upper_bound_is_one(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == pytest.approx(1.0)
        assert 0.9 < lo < 1.0

    def test_zero_trials_is_empty_interval(self):
        # Unlike wilson_interval (which raises), the AVM estimate
        # degrades gracefully: a cell with no classified runs yet
        # renders as (0, 0), not a crash.
        est = avm_estimate(0, 0)
        assert (est.ci_lo, est.ci_hi) == (0.0, 0.0)
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_interval_contains_point_estimate(self):
        for successes, trials in [(1, 7), (10, 30), (999, 1000)]:
            lo, hi = wilson_interval(successes, trials)
            assert lo <= successes / trials <= hi


class TestNonMaskedCount:
    def test_counts_only_non_masked_outcomes(self):
        tallies = {"Masked": 10, "SDC": 3, "Crash": 2, "Timeout": 1}
        assert non_masked_count(tallies) == 6

    def test_unknown_outcomes_ignored(self):
        assert non_masked_count({"Masked": 5, "Weird": 9}) == 0

    def test_outcome_constants(self):
        assert OUTCOME_ORDER == ("Masked", "SDC", "Crash", "Timeout")
        assert NON_MASKED_OUTCOMES == ("SDC", "Crash", "Timeout")


class TestAvmEstimate:
    def test_pinned_quarter(self):
        est = avm_estimate(1, 4)
        assert isinstance(est, AvmEstimate)
        assert est.avm == 0.25
        assert est.ci_lo == pytest.approx(0.0455, abs=1e-3)
        assert est.ci_hi == pytest.approx(0.6994, abs=1e-3)
        assert est.half_width == pytest.approx((est.ci_hi - est.ci_lo) / 2)

    def test_zero_runs(self):
        est = avm_estimate(0, 0)
        assert est.avm == 0.0
        assert (est.ci_lo, est.ci_hi) == (0.0, 0.0)

    def test_to_dict_schema(self):
        d = avm_estimate(3, 12).to_dict()
        assert set(d) == {"runs", "non_masked", "avm", "ci_lo", "ci_hi",
                          "ci_half_width", "confidence"}
        assert d["runs"] == 12
        assert d["non_masked"] == 3
        assert d["confidence"] == 0.95
        assert all(math.isfinite(v) for v in d.values())
