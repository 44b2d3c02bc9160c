"""Tests for explaining journaled runs by replaying them.

The narrative oracle was recorded from the flight recorder this replay
replaces: for every run of four fixed campaign cells (the CI smoke
campaign, a hotspot WA cell, an importance-sampled cell and a DA cell
with an op-budget Timeout) the fixture holds the journaled record and
the narrative the recorder printed.  Replaying each record must print
the same narrative byte for byte.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.adaptive import ImportanceModel
from repro.campaign.journal import RunJournal, RunRecord, _payload_crc
from repro.campaign.runner import CampaignRunner
from repro.circuit.liberty import VR15, VR20
from repro.cli import main
from repro.errors import characterize_wa, store
from repro.errors.base import Victim
from repro.fpu.formats import FpOp
from repro.observe import explain
from repro.uarch.injector import InjectionOutcomePlan, PlacedInjection
from repro.workloads import make_workload

FIXTURES = Path(__file__).parent / "fixtures" / "explain"
ORACLE = json.loads((FIXTURES / "narratives.json").read_text())


def _oracle_replayer(name):
    spec = ORACLE[name]
    points = [{15: VR15, 20: VR20}[vr] for vr in spec["vr"]]
    runner = CampaignRunner(
        make_workload(spec["benchmark"], scale=spec["scale"],
                      seed=spec["seed"]), seed=spec["seed"])
    if spec["model_file"]:
        model = store.load_any(FIXTURES / spec["model_file"])
    else:
        model = characterize_wa(runner.golden().profile, points)
    if spec["importance"]:
        model = ImportanceModel(model)
    return explain.Replayer(runner, model)


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_replayed_narratives_match_the_recorded_ones(name):
    replayer = _oracle_replayer(name)
    for entry in ORACLE[name]["runs"]:
        replay = replayer.replay(RunRecord.from_payload(entry["record"]))
        assert replay.mismatches == [], replay.record.key
        assert explain.narrative(replay) == entry["narrative"]


def test_oracle_covers_every_outcome():
    outcomes = {entry["record"]["outcome"]
                for spec in ORACLE.values() for entry in spec["runs"]}
    assert outcomes == {"Masked", "SDC", "Crash", "Timeout"}


def test_replacing_draws_the_executed_victim_chain():
    """Placement without the guest reproduces execute_run's victims."""
    replayer = _oracle_replayer("hotspot")
    for entry in ORACLE["hotspot"]["runs"][:6]:
        record = RunRecord.from_payload(entry["record"])
        placed = replayer.place(record)
        replayed = replayer.replay(record)
        assert placed.victims == replayed.victims
        assert placed.corruption_size == replayed.corruption_size


# -- journal model lines ----------------------------------------------------------
class TestModelLine:
    def test_campaign_journals_one_model_line(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs",
                     "3", "--vr", "15", "20", "--journal",
                     str(journal)]) == 0
        lines = [json.loads(line) for line in journal.read_text()
                 .splitlines()]
        models = [line for line in lines if line["type"] == "model"]
        assert len(models) == 1
        assert models[0]["scale"] == "tiny"
        assert models[0]["wall_clock_timeout"] is None
        assert len(models[0]["digest"]) == 64

    def test_resume_writes_no_second_model_line(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        argv = ["campaign", "kmeans", "--scale", "tiny", "--runs", "2",
                "--vr", "20", "--journal", str(journal)]
        assert main(argv) == 0
        assert main(argv[:-2] + ["--runs", "3", "--journal", str(journal),
                                 "--resume"]) == 0
        text = journal.read_text()
        assert text.count('"type":"model"') == 1
        assert text.count('"type":"run"') == 3

    def test_sharded_merged_journal_replays(self, tmp_path, capsys):
        """Both shards journal the model line; the merge keeps one, so
        the merged journal replays like a plain campaign's."""
        merged = tmp_path / "merged.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs",
                     "3", "--vr", "15", "20", "--shards", "2",
                     "--store", str(tmp_path / "s"),
                     "--journal", str(merged)]) == 0
        from repro.artifacts import ArtifactStore
        from repro.campaign.shard import CampaignSpec, ShardCoordinator

        store = ArtifactStore.local(tmp_path / "s")
        shard_journals = ShardCoordinator(
            store, CampaignSpec.load(store, "kmeans-s2021")).journal_paths()
        assert len(shard_journals) == 2
        assert all(path.read_text().count('"type":"model"') == 1
                   for path in shard_journals)
        assert merged.read_text().count('"type":"model"') == 1
        capsys.readouterr()
        assert main(["explain", str(merged), "--summary"]) == 0
        assert ("6 run(s) replayed, 0 mismatch(es)"
                in capsys.readouterr().err)


# -- the explain command ----------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("explain") / "journal.jsonl"
    assert main(["campaign", "hotspot", "--scale", "tiny", "--runs", "4",
                 "--vr", "20", "--journal", str(path)]) == 0
    return path


def _tamper(source: Path, dest: Path, run_index: int) -> None:
    """Copy a journal with one run's outcome edited, CRC recomputed."""
    lines = []
    for raw in source.read_text().splitlines():
        payload = json.loads(raw)
        if (payload.get("type") == "run"
                and payload["run_index"] == run_index):
            payload["outcome"] = ("Masked" if payload["outcome"] != "Masked"
                                  else "SDC")
            payload.pop("crc")
            payload["crc"] = _payload_crc(payload)
        lines.append(json.dumps(payload, separators=(",", ":")))
    dest.write_text("\n".join(lines) + "\n")


class TestExplainCommand:
    def test_untouched_journal_replays_clean(self, smoke_journal, capsys):
        assert main(["explain", str(smoke_journal)]) == 0
        captured = capsys.readouterr()
        assert "hotspot" in captured.out
        assert "4 run(s) replayed, 0 mismatch(es)" in captured.err

    def test_edited_outcome_is_named(self, smoke_journal, tmp_path,
                                     capsys):
        tampered = tmp_path / "tampered.jsonl"
        _tamper(smoke_journal, tampered, run_index=2)
        assert main(["explain", str(tampered)]) == 1
        err = capsys.readouterr().err
        assert "replay mismatch: hotspot/WA/VR20/2: outcome" in err
        assert "1 mismatch(es)" in err

    def test_run_drill_down_and_filters(self, smoke_journal, capsys):
        assert main(["explain", str(smoke_journal), "--run", "1"]) == 0
        out = capsys.readouterr().out
        assert "run hotspot/WA/VR20/1 (seed 2021)" in out
        assert "executor:" in out
        assert main(["explain", str(smoke_journal), "--run", "99"]) == 1
        assert "no journaled runs match" in capsys.readouterr().out

    def test_sdc_chain_reconstructed_from_journal_alone(self, smoke_journal,
                                                        capsys):
        assert main(["explain", str(smoke_journal), "--outcome", "sdc",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "outcome: SDC (relative output error" in out
        assert "placed at cycle" in out
        assert "effective corruption map:" in out

    def test_pool_journal_replays_in_process(self, tmp_path, capsys):
        journal = tmp_path / "pool.jsonl"
        assert main(["campaign", "hotspot", "--scale", "tiny", "--runs",
                     "4", "--vr", "20", "--workers", "2", "--journal",
                     str(journal)]) == 0
        assert main(["explain", str(journal)]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().err

    def test_summary_tables(self, smoke_journal, capsys):
        assert main(["explain", str(smoke_journal), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "masking by pipeline stage" in out
        assert "bit flips injected into" in out

    def test_model_file_digest_mismatch_names_the_digest(
            self, smoke_journal, tmp_path):
        line = next(json.loads(raw) for raw in
                    smoke_journal.read_text().splitlines()
                    if '"type":"model"' in raw)
        with pytest.raises(SystemExit, match=line["digest"]):
            main(["explain", str(smoke_journal), "--model-file",
                  str(FIXTURES / "da_kmeans_small.json")])

    def test_journal_without_model_line_is_rejected(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        journal = RunJournal(path, seed=3)
        journal.record_run(RunRecord("cg", "WA", "VR20", 0, "Masked"))
        journal.close()
        with pytest.raises(SystemExit, match="no model line"):
            main(["explain", str(path)])

    def test_several_models_are_rejected(self, tmp_path):
        path = tmp_path / "multi.jsonl"
        journal = RunJournal(path, seed=3)
        journal.record_model("cg", "DA", "tiny", "aa", None)
        journal.record_model("cg", "WA", "tiny", "bb", None)
        journal.close()
        with pytest.raises(SystemExit, match="holds 2 models"):
            main(["explain", str(path)])

    def test_report_replaces_runs_for_heatmap(self, smoke_journal,
                                              tmp_path, capsys):
        out = tmp_path / "r.html"
        assert main(["report", "--journal", str(smoke_journal), "--html",
                     str(out)]) == 0
        page = out.read_text()
        assert "Injected bit flips by instruction type" in page
        assert "Run drill-downs (4 runs)" in page
        assert "replay mismatch" not in capsys.readouterr().err


def test_campaign_modules_do_not_import_the_replay_module():
    code = ("import sys, repro.cli, repro.observe, "
            "repro.campaign.executor, repro.campaign.runner; "
            "print('repro.observe.explain' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# -- derived tables -----------------------------------------------------------------
def _replays():
    sdc = explain.RunReplay(
        RunRecord("cg", "WA", "VR20", 4, "SDC", wall_ms=8.0), 7,
        InjectionOutcomePlan([
            PlacedInjection(Victim(FpOp.MUL_D, 11, 0b1010), cycle=42,
                            uarch_masked=False)]),
        sdc_magnitude=3.2e-5)
    masked = explain.RunReplay(
        RunRecord("cg", "WA", "VR20", 5, "Masked", uarch_masked=1), 7,
        InjectionOutcomePlan([
            PlacedInjection(Victim(FpOp.MUL_D, 2, 0b0010), cycle=7,
                            uarch_masked=True, mask_cause="dead-write")]))
    return [sdc, masked]


class TestDerivedTables:
    def test_bitflip_histogram_counts_bits_per_op(self):
        row = explain.bitflip_histogram(_replays())["fp.mul.d"]
        assert row[1] == 2 and row[3] == 1 and sum(row) == 3

    def test_masking_summary_by_stage(self):
        assert explain.masking_summary(_replays()) == {
            "wrong-path": 0, "dead-write": 1, "reached-software": 1}

    def test_outcome_summary(self):
        summary = explain.summary_tables(_replays())
        assert summary.splitlines()[:5] == [
            "outcomes:", "outcome  runs", "-------  ----", "Masked   1   ",
            "SDC      1   "]

    def test_tables_render(self):
        table = explain.runs_table(_replays())
        assert "3.20e-05" in table and "fp.mul.d[11]^0xa" in table
        summary = explain.summary_tables(_replays())
        assert "SDC" in summary and "bit flips injected into" in summary
        assert explain.runs_table([]) == "(no journaled runs match)"

    def test_narrative_of_an_unplanned_run(self):
        replay = explain.RunReplay(
            RunRecord("cg", "DA", "VR15", 0, "Masked", injected=False), 7)
        text = explain.narrative(replay)
        assert "plan: no victims" in text
        assert "effective corruption map: 0 register write(s)" in text

    def test_filters_are_case_insensitive_and_compose(self):
        records = [replay.record for replay in _replays()]
        assert len(explain.filter_records(records, outcome="sdc")) == 1
        assert len(explain.filter_records(records, workload="CG")) == 2
        assert explain.filter_records(records, outcome="Masked",
                                      run_index=5) == [records[1]]
