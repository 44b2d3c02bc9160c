"""Tests for the self-contained HTML campaign report."""

import re
import xml.etree.ElementTree as ET

import pytest

from repro.campaign.executor import CellStats
from repro.campaign.journal import RunJournal, RunRecord
from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.runner import CampaignResult
from repro.errors.base import Victim
from repro.fpu.formats import FpOp
from repro.observe.explain import RunReplay
from repro.observe.html_report import (
    load_campaign_results,
    render_html,
    write_report,
)
from repro.uarch.injector import InjectionOutcomePlan, PlacedInjection


def _result(workload="cg", point="VR20", model="WA",
            counts=(30, 8, 1, 1)) -> CampaignResult:
    oc = OutcomeCounts()
    for outcome, n in zip(Outcome, counts):
        for _ in range(n):
            oc.record(outcome)
    return CampaignResult(
        workload=workload, model=model, point=point, counts=oc,
        error_ratio=1e-4, uarch_masked=3, seed=7,
        stats=CellStats(runs=sum(counts), executed=sum(counts),
                        retries=1, watchdog_kills=1, wall_time=2.5),
    )


def _records():
    return [
        RunReplay(
            RunRecord(workload="cg", model="WA", point="VR20", run_index=4,
                      outcome="SDC", wall_ms=8.0), seed=7,
            placed=InjectionOutcomePlan([PlacedInjection(
                Victim(FpOp.MUL_D, 11, 0x8000), cycle=42,
                uarch_masked=False)]),
            sdc_magnitude=3.2e-5,
        ),
        RunReplay(
            RunRecord(workload="cg", model="WA", point="VR20", run_index=5,
                      outcome="Masked", uarch_masked=1), seed=7,
            placed=InjectionOutcomePlan([PlacedInjection(
                Victim(FpOp.ADD_D, 2, 1 << 63), cycle=7, uarch_masked=True,
                mask_cause="wrong-path")]),
        ),
    ]


@pytest.fixture(scope="module")
def page():
    results = [_result(point="VR15"), _result(point="VR20", counts=(20, 15, 3, 2))]
    return render_html(results, _records(),
                       {"counters": {"campaign.runs": 80},
                        "stats": {"campaign.run_ms":
                                  {"count": 80, "total": 640.0,
                                   "mean": 8.0}}})


class TestSelfContainment:
    def test_no_external_fetches(self, page):
        """The acceptance grep: one file, zero network dependencies."""
        assert "http://" not in page
        assert "https://" not in page
        for attr in ("src=", "href=", "@import", "url("):
            assert attr not in page

    def test_single_document_with_inline_style_and_svg(self, page):
        assert page.startswith("<!DOCTYPE html>")
        assert page.count("<style>") == 1
        assert page.count("<svg") >= 3    # bars, AVM series, heatmap
        assert "prefers-color-scheme: dark" in page

    def test_svgs_are_well_formed(self, page):
        for svg in re.findall(r"<svg.*?</svg>", page, re.S):
            ET.fromstring(svg)


class TestContent:
    def test_sections_present(self, page):
        for heading in ("Outcome distribution", "AVM vs operating point",
                        "bit flips by instruction type", "Executor health",
                        "Run drill-downs", "Telemetry"):
            assert heading in page

    def test_charts_carry_data_tables_and_legends(self, page):
        assert page.count("<details>") >= 3
        assert page.count('class="legend"') >= 2
        assert "<table>" in page

    def test_outcome_fractions_and_drilldown(self, page):
        assert "75.0%" in page            # Masked 30/40 in the VR15 cell
        assert "cg/WA/VR20/4" in page
        assert "3.20e-05" in page
        assert "why" in page.lower()

    def test_empty_report_renders(self):
        page = render_html([])
        assert "No campaign data supplied" in page

    def test_results_without_stats_render(self):
        result = _result()
        result.stats = None
        page = render_html([result])
        assert "(no executor statistics)" in page


class TestJournalLoading:
    def test_round_trip_from_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.open(path, seed=7)
        outcomes = ["Masked", "SDC", "Masked", "Timeout"]
        for i, outcome in enumerate(outcomes):
            journal.record_run(RunRecord(
                workload="cg", model="WA", point="VR20", run_index=i,
                outcome=outcome, uarch_masked=1 if i == 0 else 0,
                watchdog=(outcome == "Timeout"), wall_ms=5.0))
        journal.record_cell(_result(counts=(2, 1, 0, 1)))
        journal.close()

        (loaded,) = load_campaign_results(path)
        assert loaded.workload == "cg"
        assert loaded.counts.total == 4
        assert loaded.counts.counts[Outcome.SDC] == 1
        assert loaded.counts.counts[Outcome.TIMEOUT] == 1
        assert loaded.uarch_masked == 1
        assert loaded.seed == 7
        assert loaded.stats.watchdog_kills == 1
        assert loaded.stats.wall_time == pytest.approx(0.02)
        assert loaded.error_ratio == pytest.approx(1e-4)

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.open(path, seed=7)
        journal.record_run(RunRecord(workload="cg", model="WA",
                                     point="VR20", run_index=0,
                                     outcome="Masked"))
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"type": "run", "workl')  # SIGKILL mid-write
        (loaded,) = load_campaign_results(path)
        assert loaded.counts.total == 1

    def test_write_report(self, tmp_path):
        out = write_report(tmp_path / "r.html", [_result()], _records())
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "http" not in text
