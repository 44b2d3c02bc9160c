"""Tests for the append-only run journal."""

import json
from collections import Counter

import pytest

from repro.campaign.journal import (
    JournalMismatch,
    RunJournal,
    RunRecord,
    canonical_journal,
    read_journal,
    run_key,
)
from repro.campaign.shard import merge_journals
from repro.observe.html_report import load_campaign_results
from repro.observe.state import CampaignState, RunClassified, journal_events
from repro.utils import durable


def _record(run_index, outcome="Masked", **kwargs):
    return RunRecord(workload="wl", model="WA", point="VR20",
                     run_index=run_index, outcome=outcome, **kwargs)


class TestRunKey:
    def test_key_is_the_rng_stream_name(self):
        """The determinism contract: journal key == RNG stream name."""
        assert run_key("sobel", "WA", "VR20", 17) == "sobel/WA/VR20/17"

    def test_record_key(self):
        assert _record(3).key == "wl/WA/VR20/3"

    @pytest.mark.parametrize("kind,args", [
        ("workload", ("so/bel", "WA", "VR20")),
        ("model", ("sobel", "W/A", "VR20")),
        ("point", ("sobel", "WA", "VR/20")),
    ], ids=["workload", "model", "point"])
    def test_slash_in_name_rejected(self, kind, args):
        """Regression: a '/' inside a component would alias distinct
        keys — run_key('a/b', 'c', ...) == run_key('a', 'b/c', ...) —
        silently cross-wiring journal resume and RNG streams."""
        with pytest.raises(ValueError, match=f"invalid {kind} name"):
            run_key(*args, 0)

    def test_aliasing_pair_is_impossible(self):
        with pytest.raises(ValueError):
            run_key("a/b", "c", "VR20", 0)
        with pytest.raises(ValueError):
            run_key("a", "b/c", "VR20", 0)

    @pytest.mark.parametrize("bad", ["", "a\nb", "a\rb", None, 7],
                             ids=["empty", "newline", "cr", "none", "int"])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            run_key("sobel", bad, "VR20", 0)


class TestJournal:
    def test_meta_line_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal.open(path, seed=11).close()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta"
        assert first["seed"] == 11

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, seed=11) as journal:
            journal.record_run(_record(0, outcome="Crash", uarch_masked=2))
            journal.record_run(_record(1, outcome="SDC", injected=False))
            journal.record_harness_error("wl/WA/VR20/2", 0, "boom")
        loaded = RunJournal.open(path, seed=11, resume=True)
        runs = loaded.completed_runs("wl", "WA", "VR20")
        assert set(runs) == {0, 1}
        assert runs[0].outcome == "Crash"
        assert runs[0].uarch_masked == 2
        assert runs[1].injected is False
        loaded.close()
        errors = read_journal(path).harness_errors
        assert [e["error"] for e in errors] == ["boom"]

    def test_cells_are_isolated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, seed=11) as journal:
            journal.record_run(_record(0))
            other = RunRecord(workload="wl", model="DA", point="VR20",
                              run_index=0, outcome="SDC")
            journal.record_run(other)
        loaded = RunJournal.open(path, seed=11, resume=True)
        assert set(loaded.completed_runs("wl", "WA", "VR20")) == {0}
        assert loaded.completed_runs("wl", "DA", "VR20")[0].outcome == "SDC"
        assert loaded.completed_runs("wl", "IA", "VR20") == {}
        loaded.close()

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, seed=11) as journal:
            journal.record_run(_record(0))
        with open(path, "a") as fh:
            fh.write('{"type":"run","workload":"wl","mod')  # torn write
        loaded = RunJournal.open(path, seed=11, resume=True)
        assert set(loaded.completed_runs("wl", "WA", "VR20")) == {0}
        loaded.close()

    def test_seed_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal.open(path, seed=11).close()
        with pytest.raises(JournalMismatch):
            RunJournal.open(path, seed=12, resume=True)

    def test_open_without_resume_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, seed=11) as journal:
            journal.record_run(_record(0))
        fresh = RunJournal.open(path, seed=11, resume=False)
        assert fresh.completed_runs("wl", "WA", "VR20") == {}
        fresh.close()

    def test_resume_missing_file_starts_clean(self, tmp_path):
        journal = RunJournal.open(tmp_path / "new.jsonl", seed=11,
                                  resume=True)
        assert journal.completed_runs("wl", "WA", "VR20") == {}
        journal.close()


class _FailNthWriteHook(durable.FaultHook):
    """Injects an OSError on the n-th journal write, half the bytes
    landing first (a torn append)."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.writes = 0

    def filter_write(self, target, path, data):
        self.writes += 1
        if self.writes == self.fail_at:
            return data[:len(data) // 2], OSError(28, "injected")
        return data, None


@pytest.fixture
def restore_hook():
    yield
    durable.set_fault_hook(None)


class TestJournalDurability:
    def test_every_line_carries_a_crc(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, seed=11) as journal:
            journal.record_run(_record(0))
            journal.record_harness_error("wl/WA/VR20/1", 0, "x")
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            assert isinstance(payload["crc"], int)

    def test_bitrot_line_quarantined_on_load(self, tmp_path):
        """A valid-JSON line whose content no longer matches its CRC is
        skipped and counted — never replayed as data."""
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, seed=11) as journal:
            journal.record_run(_record(0, outcome="Masked"))
            journal.record_run(_record(1, outcome="SDC"))
        rotted = path.read_text().replace('"Masked"', '"Crash!"')
        path.write_text(rotted)
        loaded = RunJournal.open(path, seed=11, resume=True)
        runs = loaded.completed_runs("wl", "WA", "VR20")
        assert set(runs) == {1}  # run 0 disowned, will be re-executed
        assert loaded.stats["crc_failures"] == 1
        loaded.close()

    def test_rotted_crc_key_quarantined_on_load(self, tmp_path):
        """Bit-rot can hit the CRC field *name* itself ('"crc"' →
        '"c2c"' is a single-bit flip): on a v2 journal a CRC-less line
        is corruption, not a legacy record."""
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, seed=11) as journal:
            journal.record_run(_record(0, outcome="Masked"))
            journal.record_run(_record(1, outcome="SDC"))
        text = path.read_text()
        first, rest = text.split("\n", 1)
        rotted = first + "\n" + rest.replace('"crc"', '"c2c"', 1)
        path.write_text(rotted)
        loaded = RunJournal.open(path, seed=11, resume=True)
        assert set(loaded.completed_runs("wl", "WA", "VR20")) == {1}
        assert loaded.stats["crc_failures"] == 1
        loaded.close()
        assert canonical_journal(path).count('"type":"run"') == 1

    def test_v1_journal_rejected(self, tmp_path):
        """A CRC-less v1 journal is refused with a clear message rather
        than resumed from zero with every line counted as corrupt, and
        the replayed views refuse it alike."""
        path = tmp_path / "j.jsonl"
        lines = [
            {"type": "meta", "version": 1, "seed": 11},
            {"type": "run", "workload": "wl", "model": "WA",
             "point": "VR20", "run_index": 0, "outcome": "SDC"},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        with pytest.raises(JournalMismatch, match="start a new journal"):
            RunJournal.open(path, seed=11, resume=True)
        for reader in (canonical_journal, load_campaign_results,
                       CampaignState.replay):
            with pytest.raises(JournalMismatch, match="version-1"):
                reader(path)

    def test_fsync_always_fsyncs_per_record(self, tmp_path):
        with RunJournal.open(tmp_path / "j.jsonl", seed=11,
                             fsync="always") as journal:
            for i in range(5):
                journal.record_run(_record(i))
            assert journal.stats["fsyncs"] == 6  # meta + 5 records

    def test_fsync_close_never_fsyncs_midstream(self, tmp_path):
        with RunJournal.open(tmp_path / "j.jsonl", seed=11,
                             fsync="close") as journal:
            for i in range(5):
                journal.record_run(_record(i))
            assert journal.stats["fsyncs"] == 0

    def test_fsync_group_commits_by_count(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", seed=11, fsync="group",
                             fsync_every=4, fsync_interval=3600.0)
        for i in range(11):
            journal.record_run(_record(i))
        # 12 writes with meta: fsync at records 4, 8, 12.
        assert journal.stats["fsyncs"] == 3
        journal.close()

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fsync policy"):
            RunJournal.open(tmp_path / "j.jsonl", seed=11, fsync="maybe")

    def test_write_error_absorbed_record_kept_in_memory(self, tmp_path,
                                                        restore_hook):
        """A failing append (full/failing disk) must not lose the run for
        this process, must not abort, and must leave the file loadable."""
        durable.set_fault_hook(_FailNthWriteHook(fail_at=3))  # run 1's line
        path = tmp_path / "j.jsonl"
        journal = RunJournal.open(path, seed=11)
        journal.record_run(_record(0))
        journal.record_run(_record(1))   # torn on disk, kept in memory
        journal.record_run(_record(2))
        assert journal.stats["write_errors"] == 1
        assert set(journal.completed_runs("wl", "WA", "VR20")) == {0, 1, 2}
        journal.close()
        durable.set_fault_hook(None)
        # On disk the torn record is gone; its neighbours are intact
        # (the recovery newline keeps the tear from gluing lines).
        loaded = RunJournal.open(path, seed=11, resume=True)
        assert set(loaded.completed_runs("wl", "WA", "VR20")) == {0, 2}
        loaded.close()


class TestCanonicalJournal:
    def _write(self, path, seed=11, wall_ms=1.0, retries=0, errors=False,
               extra_run=None):
        with RunJournal.open(path, seed=seed) as journal:
            journal.record_run(_record(0, wall_ms=wall_ms,
                                       retries=retries))
            journal.record_run(_record(1, outcome="SDC"))
            if errors:
                journal.record_harness_error("wl/WA/VR20/0", 0, "boom")
            if extra_run is not None:
                journal.record_run(extra_run)

    def test_wall_clock_and_retries_invariant(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a, wall_ms=1.0, retries=0)
        self._write(b, wall_ms=99.0, retries=2)
        assert canonical_journal(a) == canonical_journal(b)

    def test_harness_errors_invariant(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a, errors=False)
        self._write(b, errors=True)
        assert canonical_journal(a) == canonical_journal(b)

    def test_corrupt_lines_invariant(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a)
        self._write(b)
        with open(b, "a") as fh:
            fh.write('{"type":"run","workload":"wl","mod\n')  # torn
            fh.write("\n")
        assert canonical_journal(a) == canonical_journal(b)

    def test_keeps_last_occurrence(self, tmp_path):
        """A heal pass may re-append a run; the last record wins."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a)
        self._write(b, extra_run=_record(0))  # re-appended, identical
        assert canonical_journal(a) == canonical_journal(b)

    def test_outcome_differences_are_visible(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a)
        self._write(b, extra_run=_record(1, outcome="Crash"))
        assert canonical_journal(a) != canonical_journal(b)

    def test_order_invariant_across_cells(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r_wa = _record(0)
        r_da = RunRecord(workload="wl", model="DA", point="VR20",
                         run_index=0, outcome="SDC")
        with RunJournal.open(a, seed=11) as journal:
            journal.record_run(r_wa)
            journal.record_run(r_da)
        with RunJournal.open(b, seed=11) as journal:
            journal.record_run(r_da)
            journal.record_run(r_wa)
        assert canonical_journal(a) == canonical_journal(b)


def _defective_journal(path):
    """Five runs, then three defects a reader must quarantine: run 1
    rotted Masked→SDC, run 2's index rotted 2→9 (both fail their CRC),
    and a torn tail.  What verifiably remains is runs 0, 3 and 4."""
    outcomes = ["Masked", "Masked", "Masked", "SDC", "Timeout"]
    with RunJournal.open(path, seed=11) as journal:
        for index, outcome in enumerate(outcomes):
            journal.record_run(_record(index, outcome=outcome))
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"outcome":"Masked"', '"outcome":"SDC"')
    lines[3] = lines[3].replace('"run_index":2', '"run_index":9')
    lines.append('{"type":"run","seed":11,"workload":"wl","model":"WA",'
                 '"point":"VR20","run_index":5,"outc')
    path.write_text("\n".join(lines))
    return path


def _resumed_runs(path):
    journal = RunJournal(path, seed=11, resume=True)
    journal.close()
    return {index: record.outcome for index, record
            in journal.completed_runs("wl", "WA", "VR20").items()}


def _canonical_runs(path):
    lines = [json.loads(line)
             for line in canonical_journal(path).splitlines()]
    return {line["run_index"]: line["outcome"] for line in lines
            if line["type"] == "run"}


def _merged_runs(path):
    merged = path.with_name("merged.jsonl")
    merge_journals([path], merged, seed=11)
    return _canonical_runs(merged)


def _replayed_runs(path):
    return {event.record.run_index: event.record.outcome
            for event in journal_events(path)
            if isinstance(event, RunClassified)}


def _result_counts(path):
    tally = Counter()
    for result in load_campaign_results(path):
        tally.update({o.value: n for o, n in result.counts.counts.items()})
    return +tally


def _state_counts(path):
    return +Counter(CampaignState.replay(path).snapshot().outcomes)


_RUN_READERS = {"resume": _resumed_runs, "canonical": _canonical_runs,
                "merge": _merged_runs, "journal_events": _replayed_runs}


class TestOneReader:
    """Every journal consumer sees the same verified runs."""

    VERIFIED = {0: "Masked", 3: "SDC", 4: "Timeout"}

    @pytest.mark.parametrize("reader", sorted(_RUN_READERS))
    def test_reader_sees_the_verified_runs(self, tmp_path, reader):
        path = _defective_journal(tmp_path / "j.jsonl")
        assert _RUN_READERS[reader](path) == self.VERIFIED

    @pytest.mark.parametrize("counts", [_result_counts, _state_counts],
                             ids=["load_campaign_results", "replay"])
    def test_view_counts_the_verified_runs(self, tmp_path, counts):
        path = _defective_journal(tmp_path / "j.jsonl")
        assert counts(path) == Counter(self.VERIFIED.values())

    def test_read_journal_counts_what_it_dropped(self, tmp_path):
        contents = read_journal(_defective_journal(tmp_path / "j.jsonl"))
        assert contents.seed == 11
        assert [key[3] for key in contents.runs] == [0, 3, 4]
        assert (contents.torn, contents.crc_failures) == (1, 2)

    def test_mixed_seed_meta_lines_rejected(self, tmp_path):
        path, other = tmp_path / "j.jsonl", tmp_path / "other.jsonl"
        RunJournal.open(path, seed=11).close()
        RunJournal.open(other, seed=12).close()
        with open(path, "a") as fh:
            fh.write(other.read_text())
        with pytest.raises(JournalMismatch, match="mixes seeds"):
            read_journal(path)
