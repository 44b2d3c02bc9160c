"""Tests for the command-line interface."""

import json
import re
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "linpack"])

    def test_defaults(self):
        args = build_parser().parse_args(["campaign", "sobel"])
        assert args.runs == 1068
        assert args.vr == [15, 20]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sobel" in out and "fig9" in out

    def test_characterize_writes_artifact(self, tmp_path, capsys):
        code = main([
            "characterize", "sobel", "--model", "wa", "--scale", "tiny",
            "--samples", "5000", "--output", str(tmp_path),
        ])
        assert code == 0
        artifact = tmp_path / "wa_sobel.json"
        assert artifact.exists()

    def test_characterize_knobs_never_change_the_model(self, tmp_path,
                                                       capsys):
        """One command gives one model: with or without pipeline knobs
        the artifacts are byte-identical, and equal the committed ones
        (written by the same command)."""
        args = ["characterize", "kmeans", "--model", "all", "--scale",
                "tiny", "--samples", "2000"]
        assert main(args + ["--output", str(tmp_path / "plain")]) == 0
        assert main(args + ["--output", str(tmp_path / "knobs"),
                            "--workers", "2", "--chunk", "577",
                            "--cache-dir", str(tmp_path / "cache")]) == 0
        committed = Path(__file__).resolve().parents[1] / "artifacts"
        for name in ("ia.json", "da.json", "wa_kmeans.json"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "knobs" / name).read_bytes() == plain, name
            assert (committed / name).read_bytes() == plain, name

    def test_campaign_from_artifact(self, tmp_path, capsys):
        main([
            "characterize", "sobel", "--model", "wa", "--scale", "tiny",
            "--samples", "5000", "--output", str(tmp_path),
        ])
        capsys.readouterr()
        code = main([
            "campaign", "sobel", "--scale", "tiny", "--runs", "12",
            "--model-file", str(tmp_path / "wa_sobel.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Masked" in out and "sobel" in out

    def test_campaign_fresh_wa(self, capsys):
        assert main(["campaign", "kmeans", "--scale", "tiny",
                     "--runs", "8", "--vr", "20"]) == 0
        out = capsys.readouterr().out
        assert "VR20" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out


class TestObservabilityCli:
    def test_trace_missing_parent_dir_is_a_clear_error(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "2",
                  "--vr", "20", "--trace", str(missing)])
        message = str(excinfo.value)
        assert "--trace" in message
        assert "parent directory" in message

    def test_report_html_missing_parent_dir_is_a_clear_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--html", str(tmp_path / "nope" / "r.html")])
        assert "parent directory" in str(excinfo.value)

    def test_trace_implies_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "20", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out.lower()
        assert trace.exists()

    def test_campaign_trace_query_report_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        journal = tmp_path / "journal.jsonl"
        html = tmp_path / "report.html"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "6",
                     "--vr", "20", "--journal", str(journal),
                     "--trace", str(trace), "--monitor"]) == 0
        capsys.readouterr()

        assert main(["explain", str(journal), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "kmeans" in out and "VR20" in out
        assert "outcome" in out
        assert "injected into" in out    # --summary histogram rendered

        # A filter that matches nothing exits non-zero and says so.
        assert main(["explain", str(journal), "--run", "9999"]) == 1
        assert "no journaled runs match" in capsys.readouterr().out

        assert main(["report", "--journal", str(journal),
                     "--trace", str(trace), "--html", str(html)]) == 0
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "kmeans" in text
        assert "http" not in text


class TestControlPlaneCli:
    def test_serve_flag_ephemeral_port_and_port_file(self, tmp_path,
                                                     capsys):
        port_file = tmp_path / "port.txt"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "20", "--serve", "--metrics-port", "0",
                     "--port-file", str(port_file)]) == 0
        err = capsys.readouterr().err
        assert "control plane: http://127.0.0.1:" in err
        port = int(port_file.read_text().strip())
        assert 0 < port < 65536
        advertised = int(err.split("http://127.0.0.1:")[1].split()[0]
                         .rstrip("/"))
        assert advertised == port

    def test_serve_command_rebuilds_endpoints_post_hoc(self, tmp_path,
                                                       capsys):
        import threading
        import urllib.request

        journal = tmp_path / "j.jsonl"
        traj = tmp_path / "traj.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "6",
                     "--vr", "20", "--journal", str(journal),
                     "--trajectory", str(traj)]) == 0
        capsys.readouterr()

        port_file = tmp_path / "port.txt"
        thread = threading.Thread(target=main, args=([
            "serve", "--journal", str(journal), "--trajectory", str(traj),
            "--benchmark", "kmeans", "--metrics-port", "0",
            "--port-file", str(port_file), "--duration", "10",
        ],), daemon=True)
        thread.start()
        port = None
        for _ in range(200):
            if port_file.exists() and port_file.read_text().strip():
                port = int(port_file.read_text().strip())
                break
            time.sleep(0.05)
        assert port, "serve never wrote its port file"

        def get(path):
            url = f"http://127.0.0.1:{port}{path}"
            with urllib.request.urlopen(url, timeout=5) as resp:
                return resp.read().decode()

        doc = json.loads(get("/status"))
        assert doc["finished"] is True
        assert doc["runs_done"] == 6
        assert doc["campaign"]["benchmark"] == "kmeans"
        metrics = get("/metrics")
        assert "repro_campaign_runs_total 6" in metrics
        points = [json.loads(l) for l in get("/trajectory").splitlines()
                  if l]
        assert points[-1]["runs_done"] == 6

    def test_serve_command_empty_journal_is_an_error(self, tmp_path):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--journal", str(journal)])
        assert "no campaign results" in str(excinfo.value)

    def test_foreign_journal_is_a_clean_error(self, tmp_path, capsys):
        """A journal of another seed (resume) or format (serve, report)
        exits with one error line, not a traceback."""
        journal = tmp_path / "j.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "2",
                     "--vr", "20", "--journal", str(journal)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "2",
                  "--vr", "20", "--seed", "99", "--journal", str(journal),
                  "--resume"])
        assert str(excinfo.value).startswith("error: journal ")
        assert "not 99" in str(excinfo.value)
        v1 = tmp_path / "v1.jsonl"
        v1.write_text('{"type":"meta","version":1,"seed":11}\n')
        for argv in (["serve", "--journal", str(v1), "--duration", "0"],
                     ["report", "--journal", str(v1),
                      "--html", str(tmp_path / "r.html")]):
            with pytest.raises(SystemExit, match="^error: .*version-1"):
                main(argv)

    def test_trace_summary_appends_span_table(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "20", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "query", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span summary (by total time)" in out
        assert "campaign.run" in out
        # The golden build's layers, under the perfbench layer names.
        assert "uarch.trace" in out
        assert "uarch.ooo" in out
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        paths = sorted(e["path"] for e in spans if e["type"] == "span"
                       and e["path"].startswith("campaign.golden"))
        assert paths == ["campaign.golden", "campaign.golden/uarch.ooo",
                         "campaign.golden/uarch.trace"]

    def test_trace_explain_includes_stitched_spans(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        journal = tmp_path / "journal.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "20", "--trace", str(trace), "--journal",
                     str(journal)]) == 0
        capsys.readouterr()
        assert main(["explain", str(journal), "--run", "1", "--explain",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans (kmeans/" in out
        assert "duration ms" in out

    def test_report_with_trajectory_section(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        traj = tmp_path / "traj.jsonl"
        html = tmp_path / "r.html"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "20", "--journal", str(journal),
                     "--trajectory", str(traj)]) == 0
        assert main(["report", "--journal", str(journal),
                     "--trajectory", str(traj), "--html", str(html)]) == 0
        assert "CI convergence" in html.read_text()


class TestShardedCampaignCLI:
    def test_shards_require_a_store(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--shards", "2"])

    def test_shard_procs_requires_a_store(self):
        with pytest.raises(SystemExit, match="--shard-procs needs --store"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--shard-procs"])

    def test_campaign_id_requires_a_store(self):
        with pytest.raises(SystemExit, match="--campaign-id needs --store"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--campaign-id", "x"])

    def test_shards_below_one_are_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--shards 0"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--shards", "0", "--store", str(tmp_path / "s")])

    # Subprocess workers' spans and events never reach the parent, so
    # --shard-procs refuses the flags that need them.
    def test_shards_reject_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="--trace .*--shard-procs"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--shards", "2", "--store", str(tmp_path / "s"),
                  "--shard-procs", "--trace", str(tmp_path / "t.jsonl")])

    def test_shards_reject_telemetry(self, tmp_path):
        with pytest.raises(SystemExit, match="--telemetry .*--shard-procs"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--shards", "2", "--store", str(tmp_path / "s"),
                  "--shard-procs", "--telemetry"])

    def test_shards_reject_monitor(self, tmp_path):
        with pytest.raises(SystemExit, match="--monitor .*--shard-procs"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--shards", "2", "--store", str(tmp_path / "s"),
                  "--shard-procs", "--monitor"])

    def test_shards_reject_trajectory(self, tmp_path):
        with pytest.raises(SystemExit,
                           match="--trajectory .*--shard-procs"):
            main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                  "--shards", "2", "--store", str(tmp_path / "s"),
                  "--shard-procs", "--trajectory",
                  str(tmp_path / "p.jsonl")])

    def test_inline_shards_trace_records_worker_spans(self, tmp_path,
                                                      capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "15", "20", "--shards", "2",
                     "--store", str(tmp_path / "s"),
                     "--trace", str(trace)]) == 0
        assert "telemetry summary" in capsys.readouterr().out
        assert main(["trace", "query", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "span summary (by total time)" in summary
        assert re.search(r"campaign\.cell +2 ", summary)
        assert re.search(r"campaign\.golden +1 ", summary)

    def test_inline_shards_telemetry(self, tmp_path, capsys):
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "20", "--shards", "2",
                     "--store", str(tmp_path / "s"), "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out and "campaign.cell" in out

    def test_inline_shards_monitor(self, tmp_path, capsys):
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "15", "20", "--shards", "2",
                     "--store", str(tmp_path / "s"), "--monitor"]) == 0
        err = capsys.readouterr().err
        assert "kmeans/WA/VR15" in err and "kmeans/WA/VR20" in err

    def test_inline_shards_trajectory(self, tmp_path, capsys):
        from repro.observe import load_trajectory

        trajectory = tmp_path / "p.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "15", "20", "--shards", "2",
                     "--store", str(tmp_path / "s"),
                     "--trajectory", str(trajectory)]) == 0
        last = {}
        for point in load_trajectory(trajectory):
            last[point.cell] = point.runs_done
        assert last == {"kmeans/WA/VR15": 4, "kmeans/WA/VR20": 4}

    def test_inline_shards_build_the_golden_run_once(self, tmp_path,
                                                     monkeypatch, capsys):
        """The inline shard workers share the runner the model was
        characterised on (kmeans VR15 and VR20 both hash to shard 1 of
        3, whose worker would otherwise build a second golden run)."""
        from repro.campaign.runner import CampaignRunner

        builds = []
        build = CampaignRunner._golden_uncached

        def counting(runner):
            builds.append(runner.workload.name)
            return build(runner)

        monkeypatch.setattr(CampaignRunner, "_golden_uncached", counting)
        assert main(["campaign", "kmeans", "--scale", "tiny", "--runs", "4",
                     "--vr", "15", "20", "--shards", "3",
                     "--store", str(tmp_path / "s")]) == 0
        assert builds == ["kmeans"]

    def test_sharded_campaign_round_trip(self, tmp_path, capsys):
        """`--shards 2` end to end: drain inline, merge, summarize —
        and the merged journal matches the unsharded run's."""
        from repro.campaign.journal import canonical_journal

        plain = tmp_path / "plain.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny",
                     "--runs", "6", "--vr", "20", "--journal",
                     str(plain)]) == 0
        capsys.readouterr()
        merged = tmp_path / "merged.jsonl"
        assert main(["campaign", "kmeans", "--scale", "tiny",
                     "--runs", "6", "--vr", "20", "--shards", "2",
                     "--store", str(tmp_path / "store"),
                     "--campaign-id", "cli-rt",
                     "--journal", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "sharded campaign 'cli-rt': 2 shard(s)" in out
        assert "merged journal:" in out
        assert "archived:" in out
        assert canonical_journal(merged) == canonical_journal(plain)

        # Re-running the finished campaign is a pure resume: nothing
        # executes, the merge is re-emitted byte-identically.
        first = merged.read_bytes()
        assert main(["campaign", "kmeans", "--scale", "tiny",
                     "--runs", "6", "--vr", "20", "--shards", "2",
                     "--store", str(tmp_path / "store"),
                     "--campaign-id", "cli-rt",
                     "--journal", str(merged)]) == 0
        assert merged.read_bytes() == first

    def _serve_final_status(self, tmp_path, extra_args):
        """Run a served `--shards 2` campaign; return its final
        `/status`, `/metrics` and merged journal."""
        import threading
        import urllib.request

        merged = tmp_path / "merged.jsonl"
        port_file = tmp_path / "port.txt"
        thread = threading.Thread(target=main, args=([
            "campaign", "kmeans", "--scale", "tiny", "--runs", "6",
            "--vr", "15", "20", "--shards", "2",
            "--store", str(tmp_path / "store"), "--journal", str(merged),
            "--serve", "--metrics-port", "0", "--port-file", str(port_file),
            "--serve-grace", "5", *extra_args],), daemon=True)
        thread.start()

        def get(path):
            port = int(port_file.read_text().strip())
            url = f"http://127.0.0.1:{port}{path}"
            with urllib.request.urlopen(url, timeout=5) as resp:
                return resp.read().decode()

        status = None
        for _ in range(1200):
            if port_file.exists() and port_file.read_text().strip():
                status = json.loads(get("/status"))
                if status["finished"]:
                    break
            time.sleep(0.05)
        assert status is not None and status["finished"]
        metrics = get("/metrics")
        thread.join(timeout=60)
        return status, metrics, merged

    def _assert_merged_replay(self, status, metrics, merged):
        from repro.observe.httpd import status_document
        from repro.observe.state import CampaignState

        replayed = CampaignState.replay(merged).snapshot()
        assert replayed.runs_done == 12
        assert status["runs_done"] == replayed.runs_done
        assert status["outcomes"] == replayed.outcomes
        assert (f"repro_campaign_runs_total {replayed.runs_done}\n"
                in metrics)
        served = status_document(replayed)
        for field in ("cells_done", "avm", "cells", "adaptive"):
            assert status[field] == served[field], field

    def test_sharded_serve_final_views_are_the_merged_replay(self, tmp_path,
                                                            capsys):
        """The parent's final `/status` and `/metrics` replay the merged
        journal, as `repro serve` would, although inline workers fed the
        same runs to the live state as they ran."""
        self._assert_merged_replay(
            *self._serve_final_status(tmp_path, []))

    def test_shard_procs_serve_final_views_are_the_merged_replay(
            self, tmp_path, capsys):
        self._assert_merged_replay(
            *self._serve_final_status(tmp_path, ["--shard-procs"]))

    def test_served_resume_of_a_finished_campaign(self, tmp_path, capsys):
        """A re-run executes nothing, yet its views show every run."""
        self._serve_final_status(tmp_path, [])
        (tmp_path / "port.txt").unlink()
        self._assert_merged_replay(
            *self._serve_final_status(tmp_path, []))

    def test_shard_worker_joins_and_reports(self, tmp_path, capsys):
        """`repro shard-worker` drains a campaign created by the
        coordinator and prints a JSON summary."""

        from repro.artifacts import ArtifactStore
        from repro.campaign.fastforward import FastForwardConfig
        from repro.campaign.shard import CampaignSpec, ShardCoordinator
        from repro.campaign.runner import CampaignRunner
        from repro.circuit.liberty import VR20
        from repro.errors import characterize_wa
        from repro.workloads import make_workload

        runner = CampaignRunner(
            make_workload("kmeans", scale="tiny", seed=3), seed=3)
        points = (VR20,)
        model = characterize_wa(runner.golden().profile, points)
        store = ArtifactStore.local(tmp_path / "store")
        spec = CampaignSpec(
            campaign_id="cli-worker", benchmark="kmeans", scale="tiny",
            seed=3, runs=4, shards=1,
            points=tuple(CampaignSpec.point_dict(p) for p in points),
            models=(model.name,),
            fastforward=FastForwardConfig(enabled=False).to_dict(),
        )
        ShardCoordinator.create(store, spec, [model])
        assert main(["shard-worker", "--store", str(tmp_path / "store"),
                     "--campaign", "cli-worker", "--shard", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["items"] == 1
        assert summary["runs"] == 4
