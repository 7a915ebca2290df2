"""Unit tests for the command-line interface."""

import pytest

import repro.obs as obs
from repro.cli import _search_spec_from_args, build_parser, main
from repro.core.search import SearchSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "PDP"
        assert args.dimension == 4000
        assert args.encoder == "rbf"

    def test_federate_topologies(self):
        for topo in ("star", "tree", "pecan"):
            args = build_parser().parse_args(["federate", "--topology", topo])
            assert args.topology == topo

    def test_invalid_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "CIFAR"])

    def test_reproduce_choices(self):
        args = build_parser().parse_args(["reproduce", "--figure", "table2"])
        assert args.figure == "table2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--figure", "fig99"])

    @pytest.mark.parametrize("command", ["train", "serve-bench", "reproduce"])
    def test_search_backend_is_the_only_search_flag(self, command, capsys):
        parser = build_parser()
        assert _search_spec_from_args(parser.parse_args([command])) is None
        args = parser.parse_args([command, "--search-backend", "packed"])
        assert _search_spec_from_args(args) == SearchSpec(backend="packed")
        for knob, value in (
            ("prune", "exact"), ("prefix", "0.25"), ("margin", "0.1")
        ):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, f"--search-{knob}", value])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["train"], ["federate"], ["reproduce"], ["serve-bench"],
         ["topology", "checkpoint", "t.npz"]],
        ids=lambda command: command[0],
    )
    def test_trace_parses_only_on_serve_bench(self, command, capsys):
        """The request trace is the one trace a flag writes; the span
        trace and the telemetry replay have no flag."""
        parser = build_parser()
        if command == ["serve-bench"]:
            assert parser.parse_args(command + ["--trace", "t"]).trace == "t"
        else:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(command + ["--trace", "t"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(command + ["--telemetry", "t"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "PECAN" in out and "MNIST" in out

    def test_train_small(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "model.npz")
        code = main(
            [
                "train", "--dataset", "PDP", "--dimension", "256",
                "--scale", "0.02", "--epochs", "2", "--save", checkpoint,
                "--search-backend", "packed",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        assert "[search: packed]" in out
        assert (tmp_path / "model.npz").exists()

    def test_federate_small(self, capsys):
        code = main(
            [
                "federate", "--dataset", "PDP", "--dimension", "256",
                "--scale", "0.02", "--epochs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "level 1" in out and "training traffic" in out

    def test_serve_report_on_torn_trace_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"event": "admitted", "request": 0, "seq": 0, "t_ms": 0.0}\n'
            '{"event": "done", "request": 0, "se'
        )
        assert main(["serve-report", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {trace}:2: ")
        assert "Traceback" not in captured.err

    def test_federate_rejects_flat_dataset(self, capsys):
        code = main(
            ["federate", "--dataset", "MNIST", "--scale", "0.001"]
        )
        assert code == 2


class TestObservability:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_verbose_flag_parses(self):
        args = build_parser().parse_args(["-vv", "train"])
        assert args.verbose == 2

    def test_trace_flag_enables_obs_and_writes(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_STATS", str(tmp_path / "stats.json"))
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "serve-bench", "--dataset", "APRI", "--dimension", "128",
                "--scale", "0.02", "--max-train", "200", "--max-test", "40",
                "--epochs", "1", "--rate", "2000", "--trace", str(trace),
            ]
        )
        assert code == 0
        assert trace.exists() and trace.read_text().strip()
        assert (tmp_path / "stats.json").exists()

    def test_stats_renders_dump(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_STATS", str(tmp_path / "stats.json"))
        obs.enable()
        obs.incr("core.encode.calls", 3)
        obs.dump_stats()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "core.encode.calls" in out and "3" in out

    def test_stats_json_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_STATS", str(tmp_path / "stats.json"))
        obs.enable()
        obs.incr("x")
        obs.dump_stats()
        assert main(["stats", "--json"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["x"]["value"] == 1

    def test_stats_missing_explicit_input(self, capsys, tmp_path):
        code = main(["stats", "--input", str(tmp_path / "absent.json")])
        assert code == 2

    def _dump(self, path, n):
        """A one-counter + one-gauge stats dump worth ``n``."""
        obs.enable()
        obs.reset()
        obs.get_registry().counter("worker.requests", labels={"node": 0}).inc(n)
        obs.get_registry().gauge("worker.depth").set(n)
        obs.dump_stats(path)
        obs.reset()

    def test_stats_merge_combines_dumps(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(a, 3)
        self._dump(b, 4)
        code = main(["stats", "--merge", str(a), str(b), "--json"])
        assert code == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data['worker.requests{node="0"}']["value"] == 7
        # gauges: last dump on the command line wins
        assert data["worker.depth"]["value"] == 4

    def test_stats_merge_missing_file_exits_2(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        self._dump(a, 1)
        code = main(["stats", "--merge", str(a), str(tmp_path / "no.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_stats_merge_conflict_exits_2(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(a, 1)
        obs.enable()
        obs.reset()
        obs.incr("worker.depth")  # counter where a.json holds a gauge
        obs.dump_stats(b)
        obs.reset()
        code = main(["stats", "--merge", str(a), str(b)])
        assert code == 2
        assert "error merging" in capsys.readouterr().err

    def test_stats_openmetrics_format(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        self._dump(a, 5)
        code = main(["stats", "--input", str(a), "--format", "openmetrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert 'worker_requests_total{node="0"} 5' in out
        assert out.rstrip().endswith("# EOF")
        assert obs.parse_openmetrics(out)

    def test_stats_output_file(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        self._dump(a, 2)
        target = tmp_path / "exposition.txt"
        code = main(
            [
                "stats", "--input", str(a), "--format", "openmetrics",
                "--output", str(target),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert obs.parse_openmetrics(target.read_text())


class TestServeBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.policy == "block"
        # unset means "use the resolved SearchSpec default".
        assert args.search_backend is None
        assert args.max_batch == 32
        assert args.rate == 500.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--policy", "drop"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--backend", "packed"])

    def test_open_loop_run(self, capsys):
        code = main(
            [
                "serve-bench", "--dataset", "APRI", "--dimension", "256",
                "--scale", "0.05", "--max-train", "500", "--max-test", "150",
                "--epochs", "2", "--rate", "2000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "open loop" in out
        assert "p99" in out
        assert "accuracy (answered)" in out

    def test_closed_loop_run(self, capsys):
        code = main(
            [
                "serve-bench", "--dataset", "APRI", "--dimension", "256",
                "--scale", "0.05", "--max-train", "500", "--max-test", "150",
                "--epochs", "2", "--closed-loop", "--clients", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "closed loop: 4 clients" in out

    def test_rejects_flat_dataset(self, capsys):
        code = main(["serve-bench", "--dataset", "MNIST", "--scale", "0.001"])
        assert code == 2

    def test_faults_run(self, capsys):
        code = main(
            [
                "serve-bench", "--dataset", "APRI", "--dimension", "256",
                "--scale", "0.05", "--max-train", "500", "--max-test", "150",
                "--epochs", "2", "--rate", "2000", "--faults",
                "--fault-drop", "0.3", "--fault-dim-loss", "0.15",
                "--fault-crash", "1", "--fault-seed", "42",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults: drop 0.30" in out
        assert "crashed nodes [1]" in out
        assert "degraded" in out

    def test_faults_trace_export_then_report(
        self, capsys, tmp_path, monkeypatch
    ):
        """The acceptance path: traced chaos serve, then serve-report."""
        monkeypatch.setenv("REPRO_OBS_STATS", str(tmp_path / "stats.json"))
        obs.disable()
        obs.reset()
        trace = tmp_path / "t.jsonl"
        exposition = tmp_path / "om.txt"
        try:
            code = main(
                [
                    "serve-bench", "--dataset", "APRI", "--dimension", "256",
                    "--scale", "0.05", "--max-train", "500",
                    "--max-test", "150", "--epochs", "2", "--rate", "2000",
                    "--faults", "--fault-drop", "0.3", "--fault-crash", "1",
                    "--fault-seed", "42", "--trace", str(trace),
                    "--openmetrics", str(exposition),
                ]
            )
        finally:
            obs.disable()
            obs.reset()
        assert code == 0
        out = capsys.readouterr().out
        assert "faults: degraded" in out
        assert trace.exists()
        assert obs.parse_openmetrics(exposition.read_text())
        assert main(["serve-report", str(trace), "--slo-ms", "50"]) == 0
        report = capsys.readouterr().out
        assert "serve-report:" in report
        assert "critical-path attribution" in report
        assert "timeline" in report

    @pytest.mark.parametrize("flag", ["--trace"])
    def test_cluster_rejects_tracing_flags_before_training(
        self, flag, capsys, tmp_path, monkeypatch
    ):
        """Tracing stops at the router: say so up front, not after the run."""
        monkeypatch.setenv("REPRO_OBS_STATS", str(tmp_path / "stats.json"))

        def no_training(*args, **kwargs):
            raise AssertionError("rejected runs must not load or train")

        monkeypatch.setattr("repro.cli.load_dataset", no_training)
        out = tmp_path / "out.jsonl"
        try:
            code = main(
                ["serve-bench", "--dataset", "APRI", "--workers", "2",
                 flag, str(out)]
            )
        finally:
            obs.disable()
            obs.reset()
        assert code == 2
        err = capsys.readouterr().err
        assert "request tracing stops at the cluster router" in err
        assert "drop --trace or --workers" in err
        assert not out.exists()

    def test_cluster_rejects_drop_faults_before_training(
        self, capsys, monkeypatch
    ):
        """--fault-drop defaults to 0.1, which the cluster cannot model:
        reject the plan before the data is loaded and the model fit."""

        def no_training(*args, **kwargs):
            raise AssertionError("rejected runs must not load or train")

        monkeypatch.setattr("repro.cli.load_dataset", no_training)
        code = main(
            ["serve-bench", "--dataset", "APRI", "--workers", "2",
             "--faults", "--fault-crash", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "crash-only fault plans" in err
        assert "--fault-drop 0" in err

    def test_faults_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench", "--faults"])
        assert args.faults is True
        assert args.fault_drop == 0.1
        assert args.fault_dim_loss == 0.0
        assert args.fault_crash is None
        assert args.fault_seed is None


class TestOutputPaths:
    def test_report_output_creates_parent_dirs(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_x.report.json").write_text(
            '{"title": "X", "body": "measured"}'
        )
        out = tmp_path / "deep" / "nested" / "report.md"
        code = main(
            [
                "report", "--results-dir", str(results),
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_trace_path_creates_parent_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_STATS", str(tmp_path / "stats.json"))
        obs.disable()
        obs.reset()
        trace = tmp_path / "deep" / "nested" / "trace.jsonl"
        code = main(
            [
                "serve-bench", "--dataset", "APRI", "--dimension", "128",
                "--scale", "0.02", "--max-train", "200", "--max-test", "40",
                "--epochs", "1", "--rate", "2000", "--trace", str(trace),
            ]
        )
        obs.disable()
        obs.reset()
        assert code == 0
        assert trace.exists()
