"""The serve/query CLI pair, --json output, and exit-code conventions."""

import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.logs import TransferLog
from tests.conftest import make_record

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def log_path(tmp_path):
    log = TransferLog()
    for i in range(30):
        log.append(make_record(start=1000.0 + 200 * i, size=100_000_000))
    path = tmp_path / "LBL-ANL.ulm"
    log.save(path)
    return path


class TestServeOneshot:
    def test_prints_status_json(self, log_path, capsys):
        rc = main(["serve", str(log_path), "--oneshot"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["links"]["LBL-ANL"] == {"records": 30, "version": 30}
        assert status["default_spec"] == "C-AVG15"

    def test_link_override(self, log_path, capsys):
        rc = main(["serve", str(log_path), "--oneshot", "--link", "lbl"])
        assert rc == 0
        assert "lbl" in json.loads(capsys.readouterr().out)["links"]

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no such log file"):
            main(["serve", str(tmp_path / "nope.ulm"), "--oneshot"])

    def test_unknown_spec_rejected(self, log_path):
        with pytest.raises(SystemExit, match="unknown predictor"):
            main(["serve", str(log_path), "--oneshot", "--spec", "MAGIC"])

    def test_socketless_serve_rejected(self, log_path):
        with pytest.raises(SystemExit, match="--socket"):
            main(["serve", str(log_path)])


class TestQueryInProcess:
    def test_predict_human_and_json(self, log_path, capsys):
        rc = main(["query", "predict", "--logs", str(log_path),
                   "--link", "LBL-ANL", "--size", "100MB"])
        assert rc == 0
        assert "MB/s" in capsys.readouterr().out

        rc = main(["query", "predict", "--logs", str(log_path),
                   "--link", "LBL-ANL", "--size", "100MB", "--json"])
        assert rc == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is True
        assert response["value"] > 0
        assert response["history_length"] == 30

    def test_rank_orders_candidates(self, log_path, capsys):
        rc = main(["query", "rank", "--logs", str(log_path),
                   "--size", "100MB",
                   "--candidates", "LBL-ANL,NOWHERE", "--json"])
        assert rc == 0
        ranking = json.loads(capsys.readouterr().out)["ranking"]
        assert [r["site"] for r in ranking] == ["LBL-ANL", "NOWHERE"]

    def test_status_and_metrics(self, log_path, capsys):
        assert main(["query", "status", "--logs", str(log_path), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["ingested"] == 30

        assert main(["query", "metrics", "--logs", str(log_path), "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["service_ingested_records"]["value"] == 30

    def test_size_suffixes(self, log_path, capsys):
        for size in ("100000000", "100MB", "0.1GB"):
            rc = main(["query", "predict", "--logs", str(log_path),
                       "--link", "LBL-ANL", "--size", size, "--json"])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["size"] == 100_000_000

    def test_query_spans_sees_the_ingest_span(self, log_path, capsys):
        rc = main(["query", "spans", "--logs", str(log_path), "--json"])
        assert rc == 0
        spans = json.loads(capsys.readouterr().out)["spans"]
        ingest = [s for s in spans if s["name"] == "ingest.load_ulm"]
        assert ingest, [s["name"] for s in spans]
        assert ingest[-1]["attributes"]["records"] == 30

    def test_query_events_filters_by_kind(self, log_path, capsys):
        rc = main(["query", "events", "--logs", str(log_path),
                   "--kind", "ingest_ulm", "--limit", "1", "--json"])
        assert rc == 0
        events = json.loads(capsys.readouterr().out)["events"]
        assert len(events) == 1
        assert events[0]["kind"] == "ingest_ulm"
        assert events[0]["records"] == 30

    def test_bad_size_rejected(self, log_path):
        with pytest.raises(SystemExit, match="bad size"):
            main(["query", "predict", "--logs", str(log_path),
                  "--link", "LBL-ANL", "--size", "ten"])

    def test_predict_requires_link_and_size(self, log_path):
        with pytest.raises(SystemExit, match="needs --link and --size"):
            main(["query", "predict", "--logs", str(log_path)])

    def test_query_requires_a_target(self):
        with pytest.raises(SystemExit, match="--socket .* or --logs"):
            main(["query", "status"])

    def test_unreachable_socket_is_operational_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach server"):
            main(["query", "ping", "--socket", str(tmp_path / "none.sock")])


class TestObservabilityFlags:
    def test_serve_oneshot_dumps_a_metrics_snapshot(self, log_path, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.jsonl"
        rc = main(["serve", str(log_path), "--oneshot",
                   "--metrics-file", str(metrics_file)])
        assert rc == 0
        (line,) = metrics_file.read_text().splitlines()
        snapshot = json.loads(line)
        assert snapshot["time"] > 0
        assert snapshot["metrics"]["service_ingested_records"]["value"] == 30
        # The merged view carries the process-wide ingest instruments too.
        assert "ingest_records_parsed" in snapshot["metrics"]

    def test_profile_wraps_a_subcommand(self, log_path, tmp_path):
        # Profiling is the standard library's: ``python -m cProfile -o
        # OUT -m repro.cli ...`` runs any subcommand unchanged.
        out = tmp_path / "evaluate.pstats"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(out),
             "-m", "repro.cli", "evaluate", str(log_path),
             "--predictors", "AVG", "--json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["records"] == 30  # result unchanged
        stats = pstats.Stats(str(out))
        assert any(path.endswith("repro/cli.py") and name == "_cmd_evaluate"
                   for path, _, name in stats.stats)


class TestEvaluateJson:
    def test_json_output_and_engine_flag(self, log_path, capsys):
        rc = main(["evaluate", str(log_path), "--predictors", "AVG,C-AVG15",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 30
        names = [p["name"] for p in payload["predictors"]]
        assert names == ["AVG", "C-AVG15"]
        for p in payload["predictors"]:
            assert "overall_mape" in p and "per_class_mape" in p

    def test_class_restricts_columns(self, log_path, capsys):
        rc = main(["evaluate", str(log_path), "--predictors", "AVG",
                   "--class", "100MB", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["predictors"][0]["per_class_mape"]) == ["100MB"]


class TestStatusCommand:
    def test_scoreboard_from_logs(self, log_path, capsys):
        rc = main(["status", "--logs", str(log_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro service" in out
        assert "accuracy" in out
        assert "cache" in out

    def test_json_mode_carries_status_and_merged_metrics(self, log_path,
                                                         capsys):
        rc = main(["status", "--logs", str(log_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"]["links"]["LBL-ANL"]["records"] == 30
        assert payload["status"]["accuracy"]["enabled"] is True
        # The metrics side is the *merged* snapshot: process-wide series
        # (ingest, server counters) next to the service's own.
        assert payload["metrics"]["service_ingested_records"]["value"] == 30
        assert "ingest_records_parsed" in payload["metrics"]
        assert "accuracy_pairs_scored" in payload["metrics"]

    def test_against_live_server(self, log_path, tmp_path, capsys):
        from repro.service import PredictionService, ServiceServer

        service = PredictionService()
        service.ingest_ulm(log_path)
        with ServiceServer(service, tmp_path / "repro.sock") as server:
            rc = main(["status", "--socket", str(server.socket_path)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "repro service" in out
            assert "links=1" in out

    def test_needs_a_target(self):
        with pytest.raises(SystemExit, match="--socket .*--logs|--logs"):
            main(["status"])

    def test_rejects_nonpositive_watch(self, log_path):
        with pytest.raises(SystemExit, match="positive"):
            main(["status", "--logs", str(log_path), "--watch", "0"])

    def test_unreachable_socket_is_operational_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach server"):
            main(["status", "--socket", str(tmp_path / "nope.sock")])


class TestQualityServeFlags:
    def test_no_quality_disables_the_tracker(self, log_path, capsys):
        rc = main(["serve", str(log_path), "--oneshot", "--no-quality"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["accuracy"] == {"enabled": False}

    def test_oneshot_status_reports_accuracy_by_default(self, log_path,
                                                        capsys):
        rc = main(["serve", str(log_path), "--oneshot"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["accuracy"]["enabled"] is True
        assert status["accuracy"]["recorded"] == 0

    def test_metrics_file_snapshot_includes_quality_gauges(self, log_path,
                                                           tmp_path, capsys):
        metrics_file = tmp_path / "metrics.jsonl"
        rc = main(["serve", str(log_path), "--oneshot",
                   "--metrics-file", str(metrics_file)])
        assert rc == 0
        (line,) = metrics_file.read_text().splitlines()
        merged = json.loads(line)["metrics"]
        # One object per interval holding the quality gauges *and* the
        # per-protocol server counters (process-wide) side by side.
        assert "accuracy_pairs_scored" in merged
        assert "accuracy_pending_predictions" in merged
        assert "server_requests" in merged


class TestServingProcessOptions:
    def test_socketless_serve_leaves_the_state_dir_alone(self, log_path, tmp_path):
        state = tmp_path / "state"
        with pytest.raises(SystemExit, match="--socket"):
            main(["serve", str(log_path), "--state-dir", str(state)])
        assert not state.exists()

    def test_socketless_worker_is_a_usage_error_before_the_store_opens(
            self, tmp_path):
        from repro.fleet import worker

        state = tmp_path / "state"
        with pytest.raises(SystemExit) as exc:
            worker.main(["--shard", "0", "--state-dir", str(state)])
        assert exc.value.code == 2 and not state.exists()

    def test_fleet_says_fallback_once_to_each_worker_and_to_the_front(
            self, tmp_path, monkeypatch):
        import repro.fleet

        built = []

        class Recorded(repro.fleet.FleetRunner):
            def start(self):
                built.append(self)
                raise RuntimeError("recorded")

        monkeypatch.setattr(repro.fleet, "FleetRunner", Recorded)
        with pytest.raises(SystemExit, match="recorded"):
            main(["fleet", "--workers", "2", "--state-dir", str(tmp_path),
                  "--fallback", "--spec", "AVG"])
        (runner,) = built
        assert runner.front.fallback is True
        for handle in runner.supervisor._handles:
            argv = handle.spec.command()
            assert argv.count("--fallback") == 1
            assert argv[argv.index("--spec") + 1] == "AVG"


class TestIngest:
    def test_ingest_and_the_follower_read_lines_alike(
            self, tmp_path, capsys, monkeypatch):
        """``repro ingest`` and ``LogFollower`` share one line loop: a
        bad line is skipped and counted, a comment and a blank line are
        not, and each record carries the offset just past its line.  An
        unterminated last line is ingested, ending at the file's end; the
        follower holds it back until its newline arrives."""
        from repro.client import ServiceClient
        from repro.logs.ulm import format_record
        from repro.service import LogFollower, PredictionService, ServiceServer

        lines = [format_record(make_record(start=1000.0 + 100 * i))
                 for i in range(3)]
        text = (lines[0] + "\nnot a ulm line\n# a comment\n\n" + lines[1]
                + "\n" + lines[2])
        path = tmp_path / "L.ulm"
        path.write_bytes(text.encode())
        ends = [len(lines[0]) + 1, len(text) - len(lines[2]), len(text)]

        sent = []
        observe_batch = ServiceClient.observe_batch
        monkeypatch.setattr(
            ServiceClient, "observe_batch",
            lambda client, items: (sent.extend(items),
                                   observe_batch(client, items))[1])
        with ServiceServer(PredictionService(), tmp_path / "s.sock") as server:
            rc = main(["ingest", str(path), "--socket", str(server.socket_path),
                       "--batch", "2", "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert [summary[key] for key in (
            "records", "acked", "failed", "skipped_lines", "batches")] == [
            3, 3, 0, 1, 2]
        assert [item["offset"] for item in sent] == ends

        polls = []
        follower = LogFollower(path, polls.append)
        assert follower.poll() == 2 and follower.errors == 1
        with path.open("a") as fh:
            fh.write("\n")
        assert follower.poll() == 1
        assert [[end for _, _, end in batch] for batch in polls] == [
            ends[:2], [len(text) + 1]]
