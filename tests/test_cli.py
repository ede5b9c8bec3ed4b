"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize"])
        assert args.days == 2.0 and args.rate == 0.35

    def test_experiment_ids(self):
        args = build_parser().parse_args(["experiment", "F5", "F6"])
        assert args.ids == ["F5", "F6"]

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "--peers", "50", "--hours", "0.5"])
        assert args.peers == 50 and args.hours == 0.5
        assert args.backend == "columnar" and args.jobs == 1

    def test_generate_backend_and_jobs_flags(self):
        args = build_parser().parse_args(
            ["generate", "--backend", "event", "--jobs", "3"]
        )
        assert args.backend == "event" and args.jobs == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--backend", "scalar"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--jobs", "0"])

    def test_overlay_args(self):
        args = build_parser().parse_args(["overlay", "--peers", "50", "--ttl", "3"])
        assert args.peers == 50 and args.ttl == 3
        assert args.backend == "columnar" and args.delta == 30.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["overlay", "--backend", "scalar"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["overlay", "--jobs", "0"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analysis_jobs_flag(self):
        args = build_parser().parse_args(["experiment", "all", "--analysis-jobs", "4"])
        assert args.analysis_jobs == 4
        assert build_parser().parse_args(["experiment", "T1"]).analysis_jobs == 1

    def test_analysis_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "T1", "--analysis-jobs", "0"])

    def test_cache_format_flag(self):
        args = build_parser().parse_args(["synthesize", "--cache-format", "jsonl"])
        assert args.cache_format == "jsonl"
        assert build_parser().parse_args(["synthesize"]).cache_format == "npz"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize", "--cache-format", "xml"])


class TestCommands:
    def test_synthesize_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["synthesize", "--days", "0.02", "--rate", "0.2",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "synthesized" in captured

    def test_experiment_unknown_id(self, capsys):
        code = main(["experiment", "F99", "--days", "0.02", "--rate", "0.1"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_runs(self, capsys):
        code = main(["experiment", "F2", "--days", "0.05", "--rate", "0.2", "--seed", "4"])
        assert code == 0
        assert "F2" in capsys.readouterr().out

    def test_experiment_parallel_jobs(self, tmp_path, capsys):
        code = main(["experiment", "T1", "T2", "--days", "0.05", "--rate", "0.2",
                     "--seed", "4", "--cache-dir", str(tmp_path),
                     "--analysis-jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        # Deterministic order regardless of worker scheduling.
        assert out.index("T1") < out.index("T2")
        # The workers shared one columnar cache entry.
        assert sorted(tmp_path.glob("*.npz"))

    def test_cache_format_jsonl_writes_jsonl_entry(self, tmp_path, capsys):
        code = main(["synthesize", "--days", "0.02", "--rate", "0.2", "--seed", "1",
                     "--cache-dir", str(tmp_path), "--cache-format", "jsonl"])
        assert code == 0
        assert sorted(tmp_path.glob("*.jsonl"))
        assert not sorted(tmp_path.glob("*.npz"))

    def test_generate_writes_workload(self, tmp_path, capsys):
        out = tmp_path / "workload.jsonl"
        code = main(["generate", "--peers", "20", "--hours", "0.2",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert {"region", "start", "duration", "passive", "queries"} <= set(record)

    def test_overlay_backends_agree(self, capsys):
        outputs = []
        for backend in ("columnar", "event"):
            code = main(["overlay", "--peers", "30", "--hours", "0.1",
                         "--seed", "5", "--backend", backend])
            assert code == 0
            out = capsys.readouterr().out
            assert "simulated" in out and "hop-1 captures" in out
            # Strip the backend tag: every number must be identical.
            outputs.append(out.replace(backend, ""))
        assert outputs[0] == outputs[1]

    def test_generate_event_backend_writes_workload(self, tmp_path, capsys):
        out = tmp_path / "workload.jsonl"
        code = main(["generate", "--peers", "10", "--hours", "0.2", "--seed", "3",
                     "--backend", "event", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()

    def test_generate_writes_npz(self, tmp_path, capsys):
        from repro.core import from_npz

        out = tmp_path / "workload.npz"
        code = main(["generate", "--peers", "20", "--hours", "0.2",
                     "--seed", "3", "--jobs", "2", "--out", str(out)])
        assert code == 0
        workload = from_npz(out)
        assert workload.n_sessions > 0
        assert "workload written" in capsys.readouterr().out

    def test_generate_npz_from_event_backend(self, tmp_path, capsys):
        from repro.core import from_npz

        out = tmp_path / "workload.npz"
        code = main(["generate", "--peers", "10", "--hours", "0.2", "--seed", "3",
                     "--backend", "event", "--out", str(out)])
        assert code == 0
        assert from_npz(out).n_sessions > 0


class TestFiguresCommand:
    def test_figures_rendered(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        code = main(["figures", "--days", "0.05", "--rate", "0.25",
                     "--seed", "9", "--outdir", str(outdir)])
        assert code == 0
        svgs = sorted(outdir.glob("*.svg"))
        assert svgs
        assert "rendered" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_same_trace_is_close(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        assert main(["synthesize", "--days", "0.1", "--rate", "0.3",
                     "--seed", "5", "--out", str(a)]) == 0
        code = main(["compare", str(a), str(a)])
        assert code == 0
        assert "3/3 measures within tolerance" in capsys.readouterr().out

    def test_compare_different_seeds_still_close(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["synthesize", "--days", "0.1", "--rate", "0.3", "--seed", "5", "--out", str(a)])
        main(["synthesize", "--days", "0.1", "--rate", "0.3", "--seed", "6", "--out", str(b)])
        code = main(["compare", str(a), str(b), "--tolerance", "0.15"])
        assert code == 0


class TestStreamFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["synthesize"])
        assert args.stream is False
        assert args.shard_hours is None
        assert args.max_rss_mb is None

    def test_shard_hours_sets_the_layout_in_both_modes(self):
        from repro.cli import _scale_config

        def shard_days(*flags):
            args = build_parser().parse_args(["experiment", "T1", *flags])
            return _scale_config(args).shard_days

        assert shard_days() is None
        assert shard_days("--stream") == 1.0  # one shard per trace day
        assert shard_days("--shard-hours", "12") == 0.5
        assert shard_days("--shard-hours", "12", "--stream") == 0.5

    def test_experiment_accepts_stream(self):
        args = build_parser().parse_args(
            ["experiment", "T2", "--stream", "--shard-hours", "6",
             "--max-rss-mb", "512"]
        )
        assert args.stream and args.shard_hours == 6.0
        assert args.max_rss_mb == 512.0

    @pytest.mark.parametrize("command", ["synthesize", "experiment", "figures"])
    def test_stream_rejects_the_event_backend(self, command, capsys):
        # Only the columnar engine spills shards: a usage error, not a
        # traceback from run_sharded().
        argv = [command, *(["T2"] if command == "experiment" else []),
                "--stream", "--backend", "event", "--days", "0.02", "--no-cache"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--stream requires the columnar backend" in capsys.readouterr().err

    @pytest.mark.parametrize("hours", ["0", "-6", "nan"])
    def test_shard_hours_must_be_positive(self, hours, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["experiment", "T2", "--stream", "--shard-hours", hours])
        assert exc.value.code == 2
        assert "--shard-hours: must be a positive number" in capsys.readouterr().err


class TestStreamCommands:
    def test_synthesize_stream_reports_shards(self, tmp_path, capsys):
        code = main(["synthesize", "--stream", "--days", "0.1",
                     "--shard-hours", "1.2", "--rate", "0.2", "--seed", "5",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace cache miss" in out
        assert "in 2 shard(s)" in out
        # A second run opens the published sharded entry.
        assert main(["synthesize", "--stream", "--days", "0.1",
                     "--shard-hours", "1.2", "--rate", "0.2", "--seed", "5",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "trace cache hit" in capsys.readouterr().out

    def test_streamed_out_matches_in_memory_synthesis(self, tmp_path, capsys):
        # --out on a streamed run is the explicit opt-out of bounded
        # memory; the concatenated trace must be byte-identical to the
        # single-file path under the same config (shard layout is part
        # of the trace identity, so the plain run gets the same windows
        # from the same --shard-hours).
        streamed = tmp_path / "streamed.jsonl"
        direct = tmp_path / "direct.jsonl"
        base = ["--days", "0.1", "--shard-hours", "1.2", "--rate", "0.2",
                "--seed", "5", "--no-cache"]
        assert main(["synthesize", "--stream", *base, "--out", str(streamed)]) == 0
        assert main(["synthesize", *base, "--out", str(direct)]) == 0
        assert streamed.read_bytes() == direct.read_bytes()

    def test_experiment_shard_hours_without_stream_matches_stream(self, capsys):
        # An explicit --shard-hours shapes the in-memory trace too, so the
        # in-memory and streamed reducers see the same 2-shard trace.
        base = ["experiment", "T1", "T2", "--days", "0.1", "--rate", "0.2",
                "--seed", "5", "--no-cache", "--shard-hours", "1.2"]
        assert main(base) == 0
        in_memory = capsys.readouterr().out
        assert main([*base, "--stream"]) == 0
        assert capsys.readouterr().out == in_memory

    def test_experiment_stream_runs_and_orders_results(self, capsys):
        # Result parity with the in-memory context is pinned in
        # tests/experiments/test_stream_mode.py; here the flag must
        # survive the whole CLI round trip.
        code = main(["experiment", "T2", "F8", "--days", "0.1", "--rate",
                     "0.2", "--seed", "5", "--no-cache", "--stream",
                     "--shard-hours", "1.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("T2") < out.index("F8")

    def test_max_rss_exceeded_exits_3(self, capsys):
        code = main(["synthesize", "--stream", "--days", "0.02", "--rate",
                     "0.2", "--seed", "5", "--no-cache", "--max-rss-mb", "1"])
        assert code == 3
        assert "exceeds --max-rss-mb" in capsys.readouterr().err

    def test_max_rss_within_budget_reports_peak(self, capsys):
        code = main(["synthesize", "--stream", "--days", "0.02", "--rate",
                     "0.2", "--seed", "5", "--no-cache",
                     "--max-rss-mb", "100000"])
        assert code == 0
        assert "peak RSS" in capsys.readouterr().out


class TestServeFlags:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0 and args.peers == 2000
        assert args.codec == "columnar" and args.buffer_frames == 16
        assert args.rate is None and args.stamps is False

    def test_serve_flag_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--frames", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--buffer-frames", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--codec", "xml"])

    def test_loadtest_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest"])
        args = build_parser().parse_args(
            ["loadtest", "--port", "9", "--clients", "2"]
        )
        assert args.port == 9 and args.clients == 2


class TestServeCommand:
    """serve in a subprocess, loadtest in-process: the real wire path."""

    def _spawn_server(self, *extra):
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path as _Path

        root = _Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--peers", "60", "--window-seconds", "600",
             "--batch-sessions", "32", "--frames", "4", *extra],
            stdout=subprocess.PIPE, text=True, env=env, cwd=str(root),
        )
        line = proc.stdout.readline()
        match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
        assert match, f"no port line from serve: {line!r}"
        return proc, int(match.group(1))

    def test_serve_then_loadtest_end_to_end(self, tmp_path, capsys):
        proc, port = self._spawn_server("--stamps", "--start-clients", "2")
        try:
            report_path = tmp_path / "report.json"
            code = main(["loadtest", "--port", str(port), "--clients", "2",
                         "--json", str(report_path)])
            out = capsys.readouterr().out
            assert code == 0
            assert "2 client(s):" in out
            assert "report written" in out
            report = json.loads(report_path.read_text())
            assert report["complete_clients"] == 2
            assert report["events_total"] > 0
            assert report["latency"]["samples"] == 2 * 4
            remaining = proc.stdout.read()
            assert proc.wait(timeout=30) == 0
            assert "broadcast complete" in remaining
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_serve_jsonl_codec_end_to_end(self, capsys):
        proc, port = self._spawn_server("--codec", "jsonl")
        try:
            code = main(["loadtest", "--port", str(port), "--clients", "1"])
            out = capsys.readouterr().out
            assert code == 0
            assert "no STAMP probes" in out
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


class TestGenerateRoundTrip:
    def test_jsonl_and_npz_outputs_describe_the_same_workload(self, tmp_path, capsys):
        # Satellite check for the streamed-JSONL path: the same generate
        # invocation written both ways must round-trip to identical
        # sessions, byte-compared after a canonical re-serialization.
        from repro.core import from_jsonl, from_npz, to_jsonl

        jsonl_out = tmp_path / "workload.jsonl"
        npz_out = tmp_path / "workload.npz"
        base = ["generate", "--peers", "25", "--hours", "0.3", "--seed", "11"]
        assert main([*base, "--out", str(jsonl_out)]) == 0
        assert main([*base, "--out", str(npz_out)]) == 0

        def canonical(sessions, path):
            ordered = sorted(
                sessions, key=lambda s: (s.start, s.region.value, s.duration)
            )
            to_jsonl(ordered, path)
            return path.read_bytes()

        assert canonical(
            from_jsonl(jsonl_out), tmp_path / "a.jsonl"
        ) == canonical(
            list(from_npz(npz_out).iter_sessions()), tmp_path / "b.jsonl"
        )

    def test_jsonl_output_round_trips_through_from_jsonl(self, tmp_path, capsys):
        # The PR-7 gap: the CLI's streamed JSONL used a key from_jsonl
        # rejected, so --out x.jsonl produced a file the library could
        # not read back.  Exercise exactly that read-back.
        from repro.core import from_jsonl

        out = tmp_path / "workload.jsonl"
        assert main(["generate", "--peers", "15", "--hours", "0.2",
                     "--seed", "3", "--out", str(out)]) == 0
        sessions = from_jsonl(out)
        assert sessions
        assert all(s.queries is not None for s in sessions)
