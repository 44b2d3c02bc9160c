"""Statistical-equivalence harness: adaptive sampling vs fixed-N.

The adaptive sampler's contract has two halves:

1. **Bit-identity of the prefix**: every run an adaptive cell commits is
   the byte-identical run the fixed-N campaign would have executed at
   the same index — because each run draws exclusively from its own RNG
   substream and the stream commits strictly in index order.  Verified
   by comparing journal records run-for-run against a fixed-N reference,
   across worker counts {1, 4} and fast-forward {off, on}.
2. **Verdict equivalence**: stopping early must not change the answer.
   The fixed-N AVM must land inside every adaptive stop interval, the
   stop decision itself must be invariant to workers/fast-forward/
   resume.

The resume regression (the ISSUE's satellite): an adaptive campaign
killed mid-cell and resumed from its journal must re-derive the *same*
stop decision and produce the *same* canonical journal as the
uninterrupted run.
"""

import pytest

from repro.campaign.adaptive import (
    RULE_BUDGET,
    RULE_TARGET,
    AdaptiveConfig,
    run_adaptive_cells,
)
from repro.campaign.executor import CampaignExecutor, ExecutorConfig
from repro.campaign.fastforward import FastForwardConfig
from repro.campaign.journal import (
    RunJournal,
    canonical_journal,
    read_journal,
)
from repro.campaign.runner import CampaignRunner
from repro.workloads import make_workload

from tests.conftest import POINTS

RUNS = 16

#: Loose enough that the all-Masked cells converge mid-schedule at tiny
#: scale (looks at 4, 6, 9, 14, 16) while the mixed kmeans/VR20 cell
#: exercises a later look — every rule path gets traffic.
CONFIG = AdaptiveConfig(ci_target=0.28, min_runs=4, growth=1.5,
                        reallocate=False)


def _make_runner(name="kmeans", fastforward=False):
    ff = (FastForwardConfig(interval=7) if fastforward
          else FastForwardConfig(enabled=False))
    runner = CampaignRunner(make_workload(name, scale="tiny", seed=11),
                            seed=11, fastforward=ff)
    runner.golden()
    return runner


def _run_cells(tmp_path, label, models, workers=0, fastforward=False,
               adaptive=None):
    """Run every (model, point) cell; return ({cell: result}, journal)."""
    runner = _make_runner(fastforward=fastforward)
    path = tmp_path / f"{label}.jsonl"
    config = ExecutorConfig(workers=workers, journal_path=str(path))
    results = {}
    with CampaignExecutor(runner, config=config) as executor:
        for model in models:
            for point in POINTS:
                results[(model.name, point.name)] = executor.run_cell(
                    model, point, runs=RUNS, adaptive=adaptive)
    journal = RunJournal(path, seed=11, resume=True)
    journal.close()
    return results, journal


def _run_signature(record):
    """One journal record minus wall-clock noise."""
    return (record.run_index, record.outcome, record.injected,
            record.uarch_masked, record.weight)


@pytest.fixture(scope="module")
def model_pair(wa_models, ia_model):
    return (wa_models["kmeans"], ia_model)


@pytest.fixture(scope="module")
def fixed_reference(tmp_path_factory, model_pair):
    """Fixed-N results + journal: the ground truth every variant meets."""
    tmp = tmp_path_factory.mktemp("fixed-ref")
    return _run_cells(tmp, "fixed", model_pair)


@pytest.fixture(scope="module")
def adaptive_reference(tmp_path_factory, model_pair):
    """Serial, fast-forward-off adaptive run: the decision oracle."""
    tmp = tmp_path_factory.mktemp("adaptive-ref")
    return _run_cells(tmp, "adaptive", model_pair, adaptive=CONFIG)


class TestVerdictEquivalence:
    def test_every_cell_stops_with_a_decision(self, adaptive_reference):
        results, _ = adaptive_reference
        for cell, result in results.items():
            stop = result.stats.stop
            assert stop is not None, cell
            assert stop.rule in (RULE_TARGET, RULE_BUDGET)
            assert CONFIG.min_runs <= stop.n <= RUNS

    def test_fixed_avm_inside_every_stop_interval(self, fixed_reference,
                                                  adaptive_reference):
        """The headline equivalence: early stopping keeps the verdict."""
        fixed_results, _ = fixed_reference
        adaptive_results, _ = adaptive_reference
        for cell, result in adaptive_results.items():
            stop = result.stats.stop
            fixed_avm = fixed_results[cell].avm
            assert stop.ci_lo <= fixed_avm <= stop.ci_hi, (
                f"{cell}: fixed AVM {fixed_avm:.3f} escaped the stop "
                f"interval [{stop.ci_lo:.3f}, {stop.ci_hi:.3f}]")

    def test_some_cell_saves_runs(self, adaptive_reference):
        """Runs saved is an exact count at the fixed seed, not a ratio
        timed from one sample: 32 of the 64 fixed-N runs."""
        results, _ = adaptive_reference
        stops = {cell: (r.stats.stop.rule, r.stats.stop.n,
                        r.stats.runs_saved)
                 for cell, r in results.items()}
        assert stops == {
            ("WA", "VR15"): (RULE_TARGET, 6, 10),
            ("WA", "VR20"): (RULE_TARGET, 14, 2),
            ("IA", "VR15"): (RULE_TARGET, 6, 10),
            ("IA", "VR20"): (RULE_TARGET, 6, 10),
        }
        saved = sum(r.stats.runs_saved for r in results.values())
        assert saved == 32, "runs saved moved off the seed-11 count"

    def test_adaptive_journal_is_prefix_of_fixed(self, fixed_reference,
                                                 adaptive_reference):
        """Run-for-run bit-identity of the committed prefix."""
        _, fixed_journal = fixed_reference
        adaptive_results, adaptive_journal = adaptive_reference
        for (model, point), result in adaptive_results.items():
            stop = result.stats.stop
            fixed = fixed_journal.completed_runs("kmeans", model, point)
            adapt = adaptive_journal.completed_runs("kmeans", model, point)
            assert sorted(adapt) == list(range(stop.n))
            for idx in adapt:
                assert _run_signature(adapt[idx]) == _run_signature(
                    fixed[idx]), f"{model}/{point} run {idx}"

    def test_stop_provenance_journaled(self, adaptive_reference):
        results, journal = adaptive_reference
        stops = read_journal(journal.path).stops
        for (model, point), result in results.items():
            payload = stops.get(("kmeans", model, point))
            assert payload is not None
            stop = result.stats.stop
            assert payload["rule"] == stop.rule
            assert payload["n"] == stop.n
            assert payload["ci_lo"] == stop.ci_lo
            assert payload["ci_hi"] == stop.ci_hi


@pytest.mark.parametrize("fastforward", [False, True],
                         ids=["ff-off", "ff-on"])
@pytest.mark.parametrize("workers", [1, 4])
class TestInvariance:
    def test_decision_invariant_to_workers_and_fastforward(
            self, tmp_path, workers, fastforward, model_pair,
            adaptive_reference):
        """The stop decision is a pure function of the ordered outcome
        prefix: identical for any worker count or fast-forward setting,
        even though pool arrivals are out of order and speculative runs
        past the stop get discarded."""
        reference, _ = adaptive_reference
        label = f"w{workers}-ff{int(fastforward)}"
        results, journal = _run_cells(tmp_path, label, model_pair,
                                      workers=workers,
                                      fastforward=fastforward,
                                      adaptive=CONFIG)
        for cell, result in results.items():
            expected = reference[cell].stats.stop
            assert result.stats.stop.to_dict() == expected.to_dict(), cell
            assert result.avm == reference[cell].avm
            assert result.counts.counts == reference[cell].counts.counts

    def test_journal_prefix_invariant(self, tmp_path, workers,
                                      fastforward, model_pair,
                                      adaptive_reference):
        _, ref_journal = adaptive_reference
        label = f"j{workers}-ff{int(fastforward)}"
        _, journal = _run_cells(tmp_path, label, model_pair,
                                workers=workers, fastforward=fastforward,
                                adaptive=CONFIG)
        for (workload, model, point), runs in ref_journal._runs.items():
            got = journal.completed_runs(workload, model, point)
            assert sorted(got) == sorted(runs)
            for idx in runs:
                assert _run_signature(got[idx]) == _run_signature(
                    runs[idx])


class TestResumeRegression:
    """The satellite: kill mid-cell, resume, same decision + journal."""

    def _uninterrupted(self, tmp_path, model):
        runner = _make_runner()
        path = tmp_path / "uninterrupted.jsonl"
        config = ExecutorConfig(workers=0, journal_path=str(path))
        with CampaignExecutor(runner, config=config) as executor:
            result = executor.run_cell(model, POINTS[1], runs=RUNS,
                                       adaptive=CONFIG)
        return result, path

    def test_resume_mid_cell_reproduces_decision_and_journal(
            self, tmp_path, wa_models):
        model = wa_models["kmeans"]
        full_result, full_path = self._uninterrupted(tmp_path, model)
        stop = full_result.stats.stop
        assert stop.n > CONFIG.min_runs, "cell too easy to cut mid-way"

        # Simulate the kill: keep the meta line plus the first few run
        # records — the journal as a SIGKILL mid-cell leaves it, before
        # any stop or cell line landed.
        lines = full_path.read_text().splitlines(keepends=True)
        cut = 1 + CONFIG.min_runs - 1  # meta + an incomplete prefix
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:cut]))

        runner = _make_runner()
        config = ExecutorConfig(workers=0, journal_path=str(torn),
                                resume=True)
        with CampaignExecutor(runner, config=config) as executor:
            resumed = executor.run_cell(model, POINTS[1], runs=RUNS,
                                        adaptive=CONFIG)

        assert resumed.stats.resumed > 0, "resume replayed nothing"
        assert resumed.stats.stop.to_dict() == stop.to_dict()
        assert resumed.avm == full_result.avm
        assert canonical_journal(torn) == canonical_journal(full_path)

    def test_resume_after_stop_executes_nothing(self, tmp_path,
                                                wa_models):
        """A journal already holding the stop prefix re-derives the
        decision purely from replay — zero guest executions."""
        model = wa_models["kmeans"]
        _, full_path = self._uninterrupted(tmp_path, model)
        runner = _make_runner()
        config = ExecutorConfig(workers=0, journal_path=str(full_path),
                                resume=True)
        with CampaignExecutor(runner, config=config) as executor:
            resumed = executor.run_cell(model, POINTS[1], runs=RUNS,
                                        adaptive=CONFIG)
        assert resumed.stats.executed == 0
        assert resumed.stats.stop is not None


class TestReallocation:
    def test_saved_runs_regranted_to_widest_cell(self, wa_models):
        """A converged cell funds the pool; an unconverged cell's budget
        is raised past the fixed-N ceiling by the max-width queue."""
        config = AdaptiveConfig(ci_target=0.18, min_runs=4, growth=1.5,
                                reallocate=True, max_grants=4)
        runner = _make_runner()
        model = wa_models["kmeans"]
        runs = 24
        with CampaignExecutor(runner) as executor:
            cells = [(executor, model, point) for point in POINTS]
            results, report = run_adaptive_cells(cells, config, runs=runs)

        assert len(results) == len(report.cells) == len(POINTS)
        assert report.budget_per_cell == runs
        assert report.executed_total == sum(c["n"] for c in report.cells)
        assert any(c["rule"] == RULE_TARGET and c["saved"] > 0
                   for c in report.cells), "no cell funded the pool"
        if report.grants:
            granted_cells = {g["cell"] for g in report.grants}
            for cell in report.cells:
                if cell["cell"] in granted_cells:
                    assert cell["budget"] > runs
            # The report renders without raising and mentions the grant.
            text = report.render()
            assert "regrant" in text

    def test_report_accounting(self, wa_models):
        runner = _make_runner()
        with CampaignExecutor(runner) as executor:
            cells = [(executor, wa_models["kmeans"], POINTS[0])]
            results, report = run_adaptive_cells(cells, CONFIG, runs=RUNS)
        assert report.budget_total == RUNS
        assert 0.0 <= report.savings_fraction <= 1.0
        assert report.saved_total == RUNS - report.executed_total
        d = report.to_dict()
        assert d["executed_total"] == report.executed_total
        assert d["cells"][0]["cell"].startswith("kmeans/")
