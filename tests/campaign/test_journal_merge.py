"""Edge cases of the shard-journal merge (`merge_journals`).

The merge is the step that turns N per-shard journals back into the one
canonical campaign journal, so its failure modes are the sharding
subsystem's failure modes:

- run/cell/stop keys shared *across* input files mean the queue's
  cell partition was violated — always a :class:`MergeConflict`,
- duplicate keys *within* one file are resume/heal appends — last wins,
- a model line every shard of that model journals merges once, and two
  different model lines for one model are a :class:`MergeConflict`,
- a torn final record (kill mid-write) is skipped exactly as journal
  resume skips it, and the re-executed record further down supersedes,
- CRC-disowned lines are dropped and counted, never merged,
- empty inputs (a shard that owned no cells) merge cleanly,
- the merged bytes are invariant to input order, and the output is a
  well-formed journal (re-CRC'd, resumable, canonicalisable).
"""

import json

import pytest

from repro.campaign.journal import (
    RunJournal,
    _payload_crc,
    canonical_journal,
    read_journal,
)
from repro.campaign.shard import MergeConflict, merge_journals

SEED = 11


def _run(index, model="WA", point="VR15", outcome="Masked", **extra):
    payload = {
        "type": "run", "seed": SEED, "workload": "kmeans",
        "model": model, "point": point, "run_index": index,
        "outcome": outcome, "injected": True, "uarch_masked": False,
        "watchdog": False, "unexpected": False, "wall_ms": 1.5,
        "retries": 0, "weight": 1.0,
    }
    payload.update(extra)
    return payload


def _cell(model="WA", point="VR15", runs=2):
    return {"type": "cell", "workload": "kmeans", "model": model,
            "point": point, "runs": runs,
            "counts": {"Masked": runs}, "error_ratio": 0.5,
            "avm": 0.0, "degraded": False}


def _stop(model="WA", point="VR15"):
    return {"type": "stop", "workload": "kmeans", "model": model,
            "point": point, "rule": "target", "n": 2, "ci_lo": 0.0,
            "ci_hi": 0.2, "runs_saved": 3}


def _model(digest="ab12"):
    return {"type": "model", "workload": "kmeans", "model": "WA",
            "scale": "tiny", "digest": digest,
            "wall_clock_timeout": None}


def _encode(payload):
    body = {k: v for k, v in payload.items() if k != "crc"}
    body["crc"] = _payload_crc(body)
    return json.dumps(body, separators=(",", ":"))


def _write(path, payloads, meta=True, tail=""):
    lines = []
    if meta:
        lines.append(_encode({"type": "meta",
                              "version": RunJournal.VERSION,
                              "seed": SEED}))
    lines.extend(_encode(p) for p in payloads)
    path.write_text("\n".join(lines) + "\n" + tail)
    return path


class TestMergeBasics:
    def test_disjoint_shards_union(self, tmp_path):
        a = _write(tmp_path / "a.jsonl",
                   [_run(0), _run(1), _cell(), _stop()])
        b = _write(tmp_path / "b.jsonl",
                   [_run(0, point="VR20"), _cell(point="VR20")])
        out = tmp_path / "merged.jsonl"
        report = merge_journals([a, b], out, seed=SEED)
        assert report["runs"] == 3
        assert report["cells"] == 2
        assert report["stops"] == 1
        canonical = canonical_journal(out)
        # The merged file resumes like any other journal.
        journal = RunJournal(out, seed=SEED, resume=True)
        assert journal.stats["crc_failures"] == 0
        journal.close()
        assert canonical == canonical_journal(out)

    def test_empty_shard_merges_cleanly(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [_run(0)])
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        out = tmp_path / "merged.jsonl"
        report = merge_journals([a, empty], out, seed=SEED)
        assert report["empty_inputs"] == 1
        assert report["runs"] == 1

    def test_merge_order_invariance_is_byte_exact(self, tmp_path):
        paths = [
            _write(tmp_path / "a.jsonl", [_run(0), _run(1)]),
            _write(tmp_path / "b.jsonl",
                   [_run(0, point="VR20"), _cell(point="VR20")]),
            _write(tmp_path / "c.jsonl", [_run(0, model="IA"), _stop()]),
        ]
        out_fwd = tmp_path / "fwd.jsonl"
        out_rev = tmp_path / "rev.jsonl"
        merge_journals(paths, out_fwd, seed=SEED)
        merge_journals(list(reversed(paths)), out_rev, seed=SEED)
        assert out_fwd.read_bytes() == out_rev.read_bytes()


class TestMergeConflicts:
    def test_overlapping_run_keys_rejected(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [_run(0)])
        b = _write(tmp_path / "b.jsonl", [_run(0)])
        with pytest.raises(MergeConflict, match="run key"):
            merge_journals([a, b], tmp_path / "out.jsonl", seed=SEED)

    def test_overlapping_cell_summaries_rejected(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [_run(0), _cell()])
        b = _write(tmp_path / "b.jsonl", [_run(1), _cell()])
        with pytest.raises(MergeConflict, match="cell key"):
            merge_journals([a, b], tmp_path / "out.jsonl", seed=SEED)

    def test_seed_mismatch_rejected(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [_run(0)])
        with pytest.raises(MergeConflict, match="seed"):
            merge_journals([a], tmp_path / "out.jsonl", seed=SEED + 1)

    def test_duplicate_keys_within_one_file_last_wins(self, tmp_path):
        """Resume appends are not conflicts: the healed record (same
        bytes in real campaigns; different here to observe the pick)
        supersedes the earlier one."""
        a = _write(tmp_path / "a.jsonl",
                   [_run(0, outcome="Masked"), _run(0, outcome="SDC")])
        out = tmp_path / "merged.jsonl"
        report = merge_journals([a], out, seed=SEED)
        assert report["runs"] == 1
        [line] = [json.loads(l) for l in out.read_text().splitlines()
                  if '"type":"run"' in l]
        assert line["outcome"] == "SDC"

    def test_identical_model_lines_merge_once(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [_model(), _run(0)])
        b = _write(tmp_path / "b.jsonl",
                   [_model(), _run(0, point="VR20")])
        out = tmp_path / "merged.jsonl"
        merge_journals([a, b], out, seed=SEED)
        kinds = [json.loads(line)["type"]
                 for line in out.read_text().splitlines()]
        assert kinds == ["meta", "model", "run", "run"]
        assert read_journal(out).models == read_journal(a).models

    def test_different_model_lines_rejected(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [_model("ab12"), _run(0)])
        b = _write(tmp_path / "b.jsonl",
                   [_model("cd34"), _run(0, point="VR20")])
        with pytest.raises(MergeConflict, match="model kmeans/WA"):
            merge_journals([a, b], tmp_path / "out.jsonl", seed=SEED)


class TestMergeCorruption:
    def test_torn_final_record_skipped_and_counted(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", [_run(0), _run(1)],
                   tail='{"type":"run","seed":11,"workload":"kme')
        out = tmp_path / "merged.jsonl"
        report = merge_journals([a], out, seed=SEED)
        assert report["torn_lines"] == 1
        assert report["runs"] == 2

    def test_torn_record_superseded_by_reexecution(self, tmp_path):
        """The real crash shape: shard A tears run 1 mid-write, the
        healing worker re-executes and appends it — in a second file
        here to prove the torn line claims no ownership."""
        a = _write(tmp_path / "a.jsonl", [_run(0)],
                   tail='{"type":"run","seed":11,"workload":"kmeans","mo')
        b = _write(tmp_path / "b.jsonl", [_run(0, model="IA"),
                                          _run(1, model="IA")])
        out = tmp_path / "merged.jsonl"
        report = merge_journals([a, b], out, seed=SEED)
        assert report["torn_lines"] == 1
        assert report["runs"] == 3

    def test_crc_disowned_line_dropped(self, tmp_path):
        good = _encode({"type": "meta", "version": RunJournal.VERSION,
                        "seed": SEED})
        rotted = _encode(_run(0)).replace('"outcome":"Masked"',
                                          '"outcome":"SDC"')
        keep = _encode(_run(1))
        a = tmp_path / "a.jsonl"
        a.write_text(good + "\n" + rotted + "\n" + keep + "\n")
        out = tmp_path / "merged.jsonl"
        report = merge_journals([a], out, seed=SEED)
        assert report["crc_failures"] == 1
        assert report["runs"] == 1

    def test_harness_errors_counted_not_merged(self, tmp_path):
        a = _write(tmp_path / "a.jsonl",
                   [_run(0),
                    {"type": "harness_error", "key": "k", "attempt": 1,
                     "error": "boom"}])
        out = tmp_path / "merged.jsonl"
        report = merge_journals([a], out, seed=SEED)
        assert report["harness_errors"] == 1
        assert '"harness_error"' not in out.read_text()
