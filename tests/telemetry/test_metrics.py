"""Tests for the metric families behind /metrics and their encoder."""

import sys
import threading

import pytest

from repro import telemetry
from repro.campaign.executor import CellStats
from repro.campaign.journal import RunRecord
from repro.observe.httpd import ControlPlane, campaign_families
from repro.observe.state import CampaignState, CellBegun, RunClassified
from repro.telemetry.core import Stat
from repro.telemetry.export import (
    Family,
    escape_help,
    escape_label_value,
    render_prometheus,
    sanitize_metric_name,
    with_telemetry,
)


def _bridged(snapshot, families=()):
    """name -> family after bridging ``snapshot`` into ``families``."""
    return {f.name: f for f in with_telemetry(families, snapshot)}


def _run(outcome="Masked", run_index=0):
    return RunRecord(workload="w", model="WA", point="VR15",
                     run_index=run_index, outcome=outcome)


@pytest.fixture()
def _telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


class TestFamilies:
    def test_counter_accumulates(self, _telemetry_off):
        telemetry.enable()
        telemetry.count("campaign.guest_runs")
        telemetry.count("campaign.guest_runs", 3)
        fams = _bridged(telemetry.snapshot())
        assert fams["repro_campaign_guest_runs_total"].samples == {(): 4}

    def test_counter_set_total_never_goes_backwards(self):
        # A same-shape collision keeps the larger total: a stale
        # telemetry count never regresses the campaign's own counter.
        campaign = [Family("repro_campaign_runs_total", "counter",
                           samples={(): 10})]
        fams = _bridged({"counters": {"campaign.runs": 7}}, campaign)
        assert fams["repro_campaign_runs_total"].samples == {(): 10}
        fams = _bridged({"counters": {"campaign.runs": 12}}, campaign)
        assert fams["repro_campaign_runs_total"].samples == {(): 12}

    def test_gauge_moves_both_ways(self):
        state = CampaignState()
        state.apply(CellBegun("w", "WA", "VR15", runs=2))

        def alive():
            return {f.name: f for f in campaign_families(
                state.snapshot())}["repro_worker_alive"].samples

        assert alive() == {(): 1}
        state.apply(RunClassified(_run(), CellStats(workers=4)))
        assert alive() == {(): 4}
        state.close()
        assert alive() == {(): 0}

    def test_labelled_samples_are_independent(self):
        family = Family("outcome_total", "counter", labels=("outcome",),
                        samples={("Masked",): 1, ("SDC",): 2})
        text = render_prometheus([family])
        assert 'outcome_total{outcome="Masked"} 1' in text
        assert 'outcome_total{outcome="SDC"} 2' in text

    def test_wrong_labels_raise(self):
        with pytest.raises(ValueError):
            Family("outcome_total", "counter", labels=("outcome",),
                   samples={("SDC", "extra"): 1})
        with pytest.raises(ValueError):
            Family("outcome_total", "counter", labels=("outcome",),
                   samples={(): 1})

    def test_summary_wraps_stat(self):
        fams = _bridged({"stats": {"guest.wall_ms": {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0}}})
        stat = fams["repro_guest_wall_ms"].samples[()]
        assert fams["repro_guest_wall_ms"].kind == "summary"
        assert isinstance(stat, Stat)
        assert stat.count == 3
        assert stat.total == 6.0
        assert stat.min == 1.0
        assert stat.max == 3.0

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Family("bad name!", "counter")

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("campaign.runs") == "campaign_runs"
        assert sanitize_metric_name("9lives").startswith("_")


class TestRegistry:
    def test_kind_conflict_raises(self):
        with pytest.raises(ValueError):
            render_prometheus([Family("a_total", "counter"),
                               Family("a_total", "gauge")])

    def test_label_conflict_raises(self):
        with pytest.raises(ValueError):
            render_prometheus([
                Family("a_total", "counter", labels=("cell",)),
                Family("a_total", "counter", labels=("outcome",))])

    def test_collect_sorted_by_name(self):
        text = render_prometheus([Family("zeta", "gauge"),
                                  Family("alpha_total", "counter")])
        assert text.index("alpha_total") < text.index("zeta")

    def test_sync_from_telemetry_bridges_counters_and_stats(self):
        snapshot = {
            "counters": {"campaign.runs": 24, "journal.appends": 7},
            "stats": {"guest.wall_ms": {"count": 2, "total": 10.0,
                                        "min": 4.0, "max": 6.0}},
        }
        fams = _bridged(snapshot)
        assert fams["repro_campaign_runs_total"].samples == {(): 24}
        assert fams["repro_journal_appends_total"].samples == {(): 7}
        stat = fams["repro_guest_wall_ms"].samples[()]
        assert stat.count == 2 and stat.max == 6.0
        # A later snapshot moves forward, never doubles.
        snapshot["counters"]["campaign.runs"] = 30
        fams = _bridged(snapshot)
        assert fams["repro_campaign_runs_total"].samples == {(): 30}

    def test_sync_skips_names_already_registered_with_labels(self):
        # The campaign owns repro_campaign_retries_total{cell}; the
        # collector's `campaign.retries` path sanitizes to the same
        # family name.  The bridge must skip it, not kill the scrape —
        # and likewise skip a same-name family of another kind.
        campaign = [
            Family("repro_campaign_retries_total", "counter",
                   labels=("cell",), samples={("w/WA/VR15",): 3}),
            Family("repro_campaign_run_ms_total", "gauge",
                   samples={(): 1}),
        ]
        fams = _bridged({"counters": {"campaign.retries": 99,
                                      "campaign.runs": 4,
                                      "campaign.run_ms": 5}}, campaign)
        assert fams["repro_campaign_retries_total"].samples == {
            ("w/WA/VR15",): 3}
        assert fams["repro_campaign_run_ms_total"].kind == "gauge"
        assert fams["repro_campaign_runs_total"].samples == {(): 4}

    def test_concurrent_increments_do_not_lose_updates(self):
        # Four writers and a scraper against one state, with frequent
        # thread switches: a lost update would show in the totals.
        state = CampaignState()
        state.apply(CellBegun("w", "WA", "VR15", runs=4000))

        def worker():
            for i in range(1000):
                state.apply(RunClassified(_run(run_index=i)))

        def scraper():
            for _ in range(200):
                render_prometheus(campaign_families(state.snapshot()))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads.append(threading.Thread(target=scraper))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        text = render_prometheus(campaign_families(state.snapshot()))
        assert "repro_campaign_runs_total 4000" in text
        assert 'repro_campaign_cell_done{cell="w/WA/VR15"} 4000' in text


class TestModuleFastPath:
    """/metrics bridges telemetry only while the collector is enabled."""

    def test_disabled_means_none(self, _telemetry_off):
        plane = ControlPlane(CampaignState())
        assert "telemetry counter" not in plane.render_metrics()

    def test_enable_disable_cycle(self, _telemetry_off):
        plane = ControlPlane(CampaignState())
        telemetry.enable()
        telemetry.count("journal.appends", 2)
        assert "repro_journal_appends_total 2" in plane.render_metrics()
        telemetry.disable()
        assert "repro_journal_appends_total" not in plane.render_metrics()


class TestPrometheusEncoder:
    def test_counter_and_gauge_lines(self):
        text = render_prometheus([
            Family("repro_campaign_runs_total", "counter", "Classified runs",
                   samples={(): 24}),
            Family("repro_worker_alive", "gauge", "Live workers",
                   samples={(): 2}),
        ])
        assert "# HELP repro_campaign_runs_total Classified runs" in text
        assert "# TYPE repro_campaign_runs_total counter" in text
        assert "repro_campaign_runs_total 24" in text
        assert "# TYPE repro_worker_alive gauge" in text
        assert "repro_worker_alive 2" in text
        assert text.endswith("\n")

    def test_labelled_samples_sorted_and_quoted(self):
        text = render_prometheus([Family(
            "repro_campaign_outcome_total", "counter", labels=("outcome",),
            samples={("SDC",): 3, ("Masked",): 9})])
        masked = text.index('outcome="Masked"')
        sdc = text.index('outcome="SDC"')
        assert masked < sdc  # deterministic ordering by label value
        assert 'repro_campaign_outcome_total{outcome="SDC"} 3' in text

    def test_summary_renders_count_sum_min_max(self):
        stat = Stat()
        stat.add(4.0)
        stat.add(6.0)
        text = render_prometheus([Family("repro_run_wall_ms", "summary",
                                         samples={(): stat})])
        assert "# TYPE repro_run_wall_ms summary" in text
        assert "repro_run_wall_ms_count 2" in text
        assert "repro_run_wall_ms_sum 10" in text
        assert "repro_run_wall_ms_min 4" in text
        assert "repro_run_wall_ms_max 6" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus([]) == ""

    def test_label_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert escape_help("x\ny") == "x\\ny"

    def test_special_float_values(self):
        text = render_prometheus([
            Family("g_nan", "gauge", samples={(): float("nan")}),
            Family("g_inf", "gauge", samples={(): float("inf")}),
        ])
        assert "g_nan NaN" in text
        assert "g_inf +Inf" in text

    def test_lines_parse_as_exposition(self):
        # Every non-comment line must be `<name>[{labels}] <value>`.
        stat = Stat()
        stat.add(1.5)
        families = [
            Family("a_total", "counter", "help", samples={(): 1}),
            Family("b_ms", "summary", labels=("cell",),
                   samples={("w/WA/VR15",): stat}),
        ]
        for line in render_prometheus(families).strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # must parse
            assert name_part[0].isalpha() or name_part[0] == "_"
