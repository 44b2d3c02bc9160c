"""Property suite for the sequential stopping machinery.

Hypothesis pins the invariants the differential harness relies on:

- the sampler never stops below the ``min_runs`` floor and never
  consumes past the budget,
- the tracked half-width envelope is monotone non-increasing,
- the stream's committed prefix (and therefore the decision) is
  invariant to arrival order — the bit-identity guarantee,
- replaying any prior prefix through a fresh stream (a resume)
  reproduces the same decision,
- the importance proposal is a probability distribution whose
  Horvitz–Thompson weights satisfy the unbiasedness identity
  ``Σ qᵢ·wᵢ = 1``,

plus a seeded coverage experiment: across many simulated cells the true
proportion lands inside the reported stop interval at least as often as
the nominal confidence promises (the anytime-validity claim).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.adaptive import (
    AdaptiveConfig,
    AdaptiveCellStream,
    CellSampler,
    ImportanceModel,
    StopDecision,
    anytime_wilson_ci,
    look_schedule,
)
from repro.utils.stats import wilson_interval

from tests.conftest import POINTS


def _config(min_runs=4, ci_target=0.2, growth=1.5):
    return AdaptiveConfig(ci_target=ci_target, min_runs=min_runs,
                          growth=growth, reallocate=False)


outcome_seqs = st.lists(st.booleans(), min_size=1, max_size=120)


class FakeRecord:
    """Stands in for a RunRecord: only ``outcome`` matters to the rule."""

    def __init__(self, non_masked):
        self.outcome = "SDC" if non_masked else "Masked"

    def __eq__(self, other):
        return self.outcome == other.outcome

    def __repr__(self):
        return f"FakeRecord({self.outcome})"


class TestLookSchedule:
    @given(min_runs=st.integers(1, 50), budget=st.integers(1, 500),
           growth=st.floats(1.05, 3.0))
    def test_schedule_shape(self, min_runs, budget, growth):
        looks = look_schedule(min_runs, budget, growth)
        assert looks[-1] == budget
        assert all(a < b for a, b in zip(looks, looks[1:]))
        if min_runs < budget:
            assert looks[0] == min_runs
        assert all(1 <= n <= budget for n in looks)

    def test_pinned_default_schedule(self):
        assert look_schedule(10, 100) == (10, 13, 17, 22, 28, 35, 44,
                                          55, 69, 87, 100)

    def test_floor_at_or_above_budget_is_single_look(self):
        assert look_schedule(30, 30) == (30,)
        assert look_schedule(50, 30) == (30,)

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            look_schedule(10, 0)


class TestAnytimeInterval:
    def test_one_look_is_plain_wilson(self):
        assert anytime_wilson_ci(3, 10, 0.95, looks=1) == wilson_interval(
            3, 10, 0.95)

    @given(looks=st.integers(1, 50))
    def test_more_looks_never_narrower(self, looks):
        lo1, hi1 = anytime_wilson_ci(5, 20, 0.95, looks=looks)
        lo2, hi2 = anytime_wilson_ci(5, 20, 0.95, looks=looks + 1)
        assert hi2 - lo2 >= hi1 - lo1 - 1e-12

    def test_nonpositive_looks_clamped(self):
        assert anytime_wilson_ci(1, 4, 0.95, looks=0) == anytime_wilson_ci(
            1, 4, 0.95, looks=1)


class TestSamplerProperties:
    @given(outcomes=outcome_seqs, min_runs=st.integers(1, 20),
           target=st.floats(0.02, 0.45))
    def test_never_stops_below_floor(self, outcomes, min_runs, target):
        budget = len(outcomes)
        sampler = CellSampler(_config(min_runs=min_runs,
                                      ci_target=target), budget)
        for outcome in outcomes:
            decision = sampler.observe(outcome)
            if decision is not None:
                assert decision.n >= min(min_runs, budget)
                assert decision.n <= budget
                break

    @given(outcomes=outcome_seqs)
    def test_width_envelope_monotone_non_increasing(self, outcomes):
        sampler = CellSampler(_config(ci_target=0.02), len(outcomes))
        for outcome in outcomes:
            sampler.observe(outcome)
        widths = sampler.widths
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))

    @given(outcomes=outcome_seqs)
    def test_budget_look_always_decides(self, outcomes):
        """The final look is forced: a full-budget cell always carries a
        decision, converged or not."""
        sampler = CellSampler(_config(ci_target=0.02), len(outcomes))
        decision = None
        for outcome in outcomes:
            decision = sampler.observe(outcome) or decision
        assert decision is not None
        assert decision.rule in ("ci-target", "budget")

    @given(outcomes=outcome_seqs)
    def test_decision_consistent_with_tally(self, outcomes):
        sampler = CellSampler(_config(), len(outcomes))
        decision = None
        for outcome in outcomes:
            decision = sampler.observe(outcome)
            if decision is not None:
                break
        assert decision.non_masked <= decision.n
        assert decision.avm == pytest.approx(
            decision.non_masked / decision.n)
        lo, hi = anytime_wilson_ci(decision.non_masked, decision.n,
                                   decision.confidence, decision.looks)
        assert (decision.ci_lo, decision.ci_hi) == (lo, hi)

    def test_decision_roundtrips_through_dict(self):
        sampler = CellSampler(_config(min_runs=2), 8)
        decision = None
        for outcome in [True, False] * 4:
            decision = sampler.observe(outcome) or decision
        assert StopDecision.from_dict(decision.to_dict()) == decision


class TestStreamOrderInvariance:
    @given(outcomes=st.lists(st.booleans(), min_size=4, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    def test_commit_prefix_invariant_to_arrival_order(self, outcomes,
                                                      seed):
        """Deliveries in any order commit the same ordered prefix and
        reach the same decision as in-order delivery."""
        budget = len(outcomes)
        config = _config(min_runs=2, ci_target=0.25)

        ordered = AdaptiveCellStream(config, budget)
        for idx in range(budget):
            if ordered.reserve() is None:
                break
            ordered.deliver(idx, FakeRecord(outcomes[idx]))

        shuffled = AdaptiveCellStream(config, budget)
        indices = []
        while True:
            idx = shuffled.reserve()
            if idx is None:
                break
            indices.append(idx)
        np.random.default_rng(seed).shuffle(indices)
        for idx in indices:
            shuffled.deliver(idx, FakeRecord(outcomes[idx]))

        assert shuffled.consumed == ordered.consumed
        if ordered.decision is None:
            assert shuffled.decision is None
        else:
            assert shuffled.decision == ordered.decision

    @given(outcomes=st.lists(st.booleans(), min_size=4, max_size=40),
           data=st.data())
    def test_resume_reproduces_decision(self, outcomes, data):
        """Replaying any executed prefix as ``prior`` records yields the
        same decision as the uninterrupted stream — the journal-resume
        guarantee at the unit level."""
        budget = len(outcomes)
        config = _config(min_runs=2, ci_target=0.25)
        full = AdaptiveCellStream(config, budget)
        for idx in range(budget):
            if full.reserve() is None:
                break
            full.deliver(idx, FakeRecord(outcomes[idx]))

        executed = len(full.consumed)
        cut = data.draw(st.integers(0, executed), label="cut")
        prior = {i: FakeRecord(outcomes[i]) for i in range(cut)}
        resumed = AdaptiveCellStream(config, budget, prior=prior)
        while not resumed.stopped:
            idx = resumed.reserve()
            if idx is None:
                break
            resumed.deliver(idx, FakeRecord(outcomes[idx]))

        assert resumed.consumed == full.consumed
        if full.decision is not None:
            assert resumed.decision == full.decision

    def test_post_stop_deliveries_discarded(self):
        config = _config(min_runs=2, ci_target=0.45)
        stream = AdaptiveCellStream(config, 10)
        reserved = [stream.reserve() for _ in range(6)]
        assert reserved == [0, 1, 2, 3, 4, 5]
        stream.deliver(0, FakeRecord(False))
        stream.deliver(1, FakeRecord(False))  # 0/2 decides at the floor
        assert stream.stopped
        assert stream.deliver(2, FakeRecord(True)) == []
        assert stream.discarded >= 1
        assert stream.reserve() is None

    def test_abandoned_indices_skipped_deterministically(self):
        config = _config(min_runs=3, ci_target=0.45)
        stream = AdaptiveCellStream(config, 10)
        for _ in range(5):
            stream.reserve()
        stream.deliver(0, FakeRecord(False))
        stream.abandon(1)
        stream.deliver(2, FakeRecord(False))
        stream.deliver(3, FakeRecord(False))
        assert stream.consumed == [0, 2, 3]
        assert stream.abandoned == 1


class TestImportanceProperties:
    @pytest.fixture()
    def importance(self, wa_models):
        return ImportanceModel(wa_models["kmeans"])

    def test_renames_model(self, importance, wa_models):
        assert importance.name == wa_models["kmeans"].name + "-IS"
        assert importance.error_ratio is not None

    @pytest.mark.parametrize("point", POINTS, ids=lambda p: p.name)
    def test_proposal_is_distribution_with_ht_identity(self, importance,
                                                       point):
        if importance.faulty_population(point) == 0:
            pytest.skip("no faulty population at this point")
        events, q, w = importance.proposal(point)
        assert len(events) == len(q) == len(w)
        assert all(qi > 0 for qi in q)
        assert sum(q) == pytest.approx(1.0)
        # The Horvitz–Thompson unbiasedness identity.
        assert sum(qi * wi for qi, wi in zip(q, w)) == pytest.approx(1.0)

    def test_rejects_models_without_trace_faults(self, ia_model):
        with pytest.raises(TypeError):
            ImportanceModel(ia_model)


class TestCoverage:
    """Seeded anytime-validity experiment.

    For each true proportion, simulate many cells through the stopping
    rule and count how often the *stop-time* interval contains the
    truth.  Bonferroni across the look schedule guarantees coverage at
    least the nominal confidence — empirically it is comfortably above,
    because the union bound is loose.
    """

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5])
    def test_stop_interval_covers_truth_at_nominal_rate(self, p):
        rng = np.random.default_rng(20210814)
        config = AdaptiveConfig(ci_target=0.08, min_runs=10, growth=1.25,
                                reallocate=False)
        trials, covered = 300, 0
        budget = 400
        for _ in range(trials):
            sampler = CellSampler(config, budget)
            decision = None
            draws = rng.random(budget) < p
            for outcome in draws:
                decision = sampler.observe(bool(outcome))
                if decision is not None:
                    break
            assert decision is not None
            if decision.ci_lo <= p <= decision.ci_hi:
                covered += 1
        assert covered / trials >= config.confidence
