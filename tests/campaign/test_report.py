"""Tests for the plain-text report renderers."""

from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.report import (
    error_ratio_table,
    feature_matrix,
    format_table,
    outcome_table,
)
from repro.campaign.runner import CampaignResult
from repro.errors.da import DaModel


def _result(workload, model, point, sdc, ratio):
    counts = OutcomeCounts()
    counts.counts[Outcome.MASKED] = 10 - sdc
    counts.counts[Outcome.SDC] = sdc
    return CampaignResult(workload=workload, model=model, point=point,
                          counts=counts, error_ratio=ratio)


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["col", "x"], [["value", 1], ["v", 22]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        assert lines[0].index("x") == lines[2].index("1")


class TestOutcomeTable:
    def test_rows_and_percentages(self):
        text = outcome_table([
            _result("cg", "WA", "VR15", sdc=3, ratio=1e-4),
            _result("cg", "DA", "VR15", sdc=9, ratio=1e-3),
        ])
        assert "cg" in text
        assert "30.0%" in text and "90.0%" in text
        assert "AVM" in text

    def test_sorted_by_benchmark_point_model(self):
        text = outcome_table([
            _result("zz", "WA", "VR15", 1, 1e-4),
            _result("aa", "DA", "VR20", 1, 1e-3),
        ])
        assert text.index("aa") < text.index("zz")


class TestErrorRatioTable:
    def test_fold_changes_against_reference(self):
        text = error_ratio_table([
            _result("cg", "WA", "VR15", 1, 1e-4),
            _result("cg", "DA", "VR15", 1, 1e-2),
        ])
        assert "100.0x" in text

    def test_reference_has_no_fold(self):
        text = error_ratio_table([_result("cg", "WA", "VR15", 1, 1e-4)])
        assert "x" not in text.split("\n")[-1].split()[-1]


class TestFeatureMatrix:
    def test_table1_rendering(self):
        text = feature_matrix([DaModel({"VR15": 1e-3})])
        assert "DA" in text
        assert "fixed probability" in text
        assert "yes" in text and "no" in text
