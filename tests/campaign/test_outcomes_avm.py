"""Tests for outcome classification, AVM, and the energy analysis."""

import numpy as np
import pytest

from repro.campaign.avm import (
    EnergyAnalysis,
    avm_divergence,
    error_ratio_divergence,
)
from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.circuit.liberty import NOMINAL, TECHNOLOGY, VR15, VR20
from repro.fpu.formats import FpOp
from repro.workloads.base import Workload


def _counts(masked=0, sdc=0, crash=0, timeout=0):
    counts = OutcomeCounts()
    counts.counts[Outcome.MASKED] = masked
    counts.counts[Outcome.SDC] = sdc
    counts.counts[Outcome.CRASH] = crash
    counts.counts[Outcome.TIMEOUT] = timeout
    return counts


def _result(workload, model, point, avm_counts, error_ratio):
    return CampaignResult(workload=workload, model=model, point=point,
                          counts=avm_counts, error_ratio=error_ratio)


class TestOutcomeCounts:
    def test_record_and_total(self):
        counts = OutcomeCounts()
        counts.record(Outcome.SDC)
        counts.record(Outcome.MASKED)
        counts.extend([Outcome.CRASH, Outcome.TIMEOUT])
        assert counts.total == 4

    def test_fractions_sum_to_one(self):
        counts = _counts(masked=50, sdc=30, crash=15, timeout=5)
        assert sum(counts.fractions().values()) == pytest.approx(1.0)

    def test_avm_eq4(self):
        """AVM = (#SDC + #Crash + #Timeout) / total."""
        counts = _counts(masked=60, sdc=25, crash=10, timeout=5)
        assert counts.avm == pytest.approx(0.40)

    def test_avm_empty_is_zero(self):
        assert OutcomeCounts().avm == 0.0

    def test_merge(self):
        merged = _counts(masked=1, sdc=2).merge(_counts(crash=3))
        assert merged.total == 6
        assert merged.counts[Outcome.CRASH] == 3


class TestDivergenceAggregates:
    def _cells(self):
        return [
            _result("app", "WA", "VR15", _counts(masked=90, sdc=10), 1e-4),
            _result("app", "DA", "VR15", _counts(masked=40, sdc=60), 1e-3),
            _result("app", "IA", "VR15", _counts(masked=60, sdc=40), 1e-3),
            _result("app", "WA", "VR20", _counts(masked=50, sdc=50), 1e-2),
            _result("app", "DA", "VR20", _counts(masked=0, sdc=100), 1e-2),
        ]

    def test_avm_divergence_points(self):
        divergence = avm_divergence(self._cells())
        assert divergence["DA"] == pytest.approx((50.0 + 50.0) / 2)
        assert divergence["IA"] == pytest.approx(30.0)

    def test_error_ratio_divergence_geomean(self):
        folds = error_ratio_divergence(self._cells())
        # DA: 10x at VR15, 1x at VR20 -> geomean sqrt(10).
        assert folds["DA"] == pytest.approx(10 ** 0.5)
        assert folds["IA"] == pytest.approx(10.0)

    def test_zero_ratio_floored(self):
        cells = [
            _result("a", "WA", "VR15", _counts(masked=1), 0.0),
            _result("a", "DA", "VR15", _counts(sdc=1), 1e-3),
        ]
        folds = error_ratio_divergence(cells, floor=1e-6)
        assert folds["DA"] == pytest.approx(1000.0)


class TestEnergyAnalysis:
    def test_safe_point_picks_lowest_voltage(self):
        energy = EnergyAnalysis()
        sweep = [(NOMINAL, 0.0), (VR15, 0.0), (VR20, 0.4)]
        assert energy.safe_point(sweep) is VR15

    def test_safe_point_falls_back_to_nominal(self):
        energy = EnergyAnalysis()
        sweep = [(NOMINAL, 0.0), (VR15, 0.2), (VR20, 0.5)]
        assert energy.safe_point(sweep) is NOMINAL

    def test_safe_point_requires_candidate(self):
        with pytest.raises(ValueError):
            EnergyAnalysis().safe_point([(VR20, 0.9)])

    def test_power_saving_v_squared(self):
        energy = EnergyAnalysis()
        assert energy.power_saving(VR20) == pytest.approx(0.36)
        assert energy.power_saving(NOMINAL) == pytest.approx(0.0)

    def test_guardband_saving_exceeds_v2(self):
        """The paper's 56%-style figure folds in the guardband headroom."""
        energy = EnergyAnalysis()
        assert energy.energy_saving_with_guardband(VR20) > (
            energy.power_saving(VR20)
        )

    def test_mitigation_overhead_charged(self):
        energy = EnergyAnalysis()
        free = energy.mitigation_energy_saving(VR20, error_ratio=0.0)
        taxed = energy.mitigation_energy_saving(VR20, error_ratio=1e-2)
        assert free == pytest.approx(0.36)
        assert taxed < free

    def test_mitigation_validates_ratio(self):
        with pytest.raises(ValueError):
            EnergyAnalysis().mitigation_energy_saving(VR20, error_ratio=2.0)

    def test_best_mitigated_point(self):
        energy = EnergyAnalysis()
        point, saving = energy.best_mitigated_point(
            [(NOMINAL, 0.0), (VR15, 1e-4), (VR20, 0.3)]
        )
        assert point is VR15
        assert saving > 0.2

    def test_paper_20_percent_mitigation_claim_shape(self):
        """With realistic WA error ratios, mitigation-enabled undervolting
        saves on the order of the paper's 'up to 20%'."""
        energy = EnergyAnalysis()
        saving = energy.mitigation_energy_saving(VR15, error_ratio=1e-3)
        assert 0.15 < saving < 0.35


class _MutantWorkload(Workload):
    """Guest with an injectable defect mode, for classification tests.

    The golden run is clean; a corrupted run (non-empty ``corruption``
    on the context) exhibits exactly one canonical failure shape.  The
    corruption map used by the tests points past the dynamic op stream,
    so no bit actually flips — the observed outcome is produced purely
    by the defect mode, which isolates the classification boundary.
    """

    name = "mutant"
    checkpointable = False

    def __init__(self, mode="clean"):
        self.mode = mode
        super().__init__(scale="tiny", seed=3)

    def _build_input(self):
        self.data = np.linspace(1.0, 2.0, 64)

    def run(self, ctx):
        out = ctx.add(self.data, self.data)
        if not ctx.corruption:
            return out
        if self.mode == "off_by_one":
            mutated = out.copy()
            mutated[-1] += 1.0
            return mutated
        if self.mode == "nan":
            mutated = out.copy()
            mutated[0] = np.nan
            return mutated
        if self.mode == "truncated":
            # A deranged index terminates the guest mid-run.
            return out[np.arange(len(out) + 1)]
        if self.mode == "hung":
            while True:  # charges ops until the budget trips
                out = ctx.add(out, self.data)
        return out

    def outputs_equal(self, golden, observed):
        return bool(np.array_equal(golden, observed))


class TestClassificationMutations:
    """Mutation-style probes of the run_guest classification boundary:
    each canonical guest failure shape must land in its Table II bucket.
    """

    #: Past the op stream: arms the defect mode without flipping bits.
    CORRUPTION = {FpOp.ADD_D: {10**9: 1}}

    def _classify(self, mode):
        runner = CampaignRunner(_MutantWorkload(mode), seed=7)
        return runner.run_guest(self.CORRUPTION)

    def test_clean_guest_is_masked(self):
        assert self._classify("clean").outcome is Outcome.MASKED

    def test_off_by_one_output_is_sdc(self):
        execution = self._classify("off_by_one")
        assert execution.outcome is Outcome.SDC
        assert execution.unexpected is None

    def test_nan_output_is_sdc(self):
        execution = self._classify("nan")
        assert execution.outcome is Outcome.SDC
        assert execution.unexpected is None

    def test_truncated_guest_is_crash(self):
        execution = self._classify("truncated")
        assert execution.outcome is Outcome.CRASH
        assert execution.unexpected is None  # IndexError is a listed crash

    def test_hung_guest_is_timeout(self):
        execution = self._classify("hung")
        assert execution.outcome is Outcome.TIMEOUT
        assert not execution.watchdog  # the FP-op budget fired, not SIGALRM

    def test_nan_sdc_magnitude_is_infinite_when_recorded(self):
        """The replay path measures a NaN-corrupted SDC as infinitely
        far from golden (``repro explain`` computes it the same way)."""
        runner = CampaignRunner(_MutantWorkload("nan"), seed=7)
        execution = runner.run_guest(self.CORRUPTION)
        assert execution.outcome is Outcome.SDC
        assert runner.workload.sdc_magnitude(
            runner.golden().output, execution.observed) == float("inf")
