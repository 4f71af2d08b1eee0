"""The ``repro`` command: dispatch, error policy, and its verbs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import VERBS, build_parser, main
from repro.serving.client import ServingError

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestEntryPoint:
    @pytest.mark.parametrize("verb", list(VERBS))
    def test_every_verb_answers_help(self, verb, capsys):
        with pytest.raises(SystemExit) as done:
            main([verb, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {verb}")

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--samples", "5"]])
    def test_missing_or_unknown_verb_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [
            OSError("disk gone"),
            ValueError("bad value"),
            KeyError("no such key"),
            RuntimeError("broken state"),
            ServingError(503, "overloaded"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_expected_failure_is_one_error_line_and_exit_1(
        self, error, monkeypatch, capsys
    ):
        def verb(argv):
            raise error

        monkeypatch.setattr(cli, "characterize", verb)
        assert main(["characterize"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unexpected_failure_propagates(self, monkeypatch):
        def verb(argv):
            raise TypeError("a bug, not a user error")

        monkeypatch.setattr(cli, "characterize", verb)
        with pytest.raises(TypeError):
            main(["characterize"])

    def test_closed_pipe_exits_0(self, monkeypatch):
        def verb(argv):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "characterize", verb)
        monkeypatch.setattr(sys, "stdout", sys.stdout)  # restored after
        assert main(["characterize"]) == 0
        assert sys.stdout.name == os.devnull
        sys.stdout.close()

    def test_verb_receives_the_rest_of_argv(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "characterize", lambda argv: seen.append(argv))
        main(["characterize", "--samples", "12", "--fast"])
        assert seen == [["--samples", "12", "--fast"]]

    def test_emit_into_a_file_path_is_an_error_not_a_traceback(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            [
                "ingest", "emit", str(REPO_ROOT / "data" / "sample_trace.csv"),
                "--name", "blocked", "--out", str(blocker / "x.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_module_entry_point_runs_a_verb(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "table2"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "==== table2 ====" in result.stdout
        assert "Overall accuracy" in result.stdout


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.samples == 50
        assert args.scenario == "paper"
        assert args.backend == "simulator"

    def test_scenario_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scenario", "black_friday"])

    def test_injection_range(self):
        args = build_parser().parse_args(["--injection", "300", "500"])
        assert args.injection == [300.0, 500.0]


class TestMain:
    def test_fast_analytic_run_writes_report(self, tmp_path):
        output = tmp_path / "report.md"
        code = main(
            [
                "characterize",
                "--backend",
                "analytic",
                "--fast",
                "--samples",
                "15",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "# Workload characterization report" in text
        assert "Pareto frontier" in text

    def test_too_few_samples_rejected(self, capsys):
        assert main(["characterize", "--samples", "5"]) == 1
        assert (
            capsys.readouterr().err == "error: --samples must be at least 10\n"
        )

    def test_inverted_injection_rejected(self, capsys):
        assert (
            main(
                ["characterize", "--backend", "analytic", "--injection",
                 "500", "400", "--samples", "12", "--fast"]
            )
            == 1
        )
        assert capsys.readouterr().err == (
            "error: --injection needs LOW < HIGH, got 500.0 400.0\n"
        )


class TestServeCLI:
    def test_parser_defaults(self):
        from repro.serving.server import build_parser as serve_parser

        args = serve_parser().parse_args(["--models-dir", "models"])
        assert args.port == 8700
        assert args.max_batch_size == 32
        assert args.cache_size == 1024
        assert not args.no_batching

    def test_models_dir_required(self):
        from repro.serving.server import build_parser as serve_parser

        with pytest.raises(SystemExit):
            serve_parser().parse_args([])

    def test_missing_directory_exits_nonzero(self, tmp_path, capsys):
        code = main(["serve", "--models-dir", str(tmp_path / "absent")])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_module_entry_point_prints_one_error_line(self, tmp_path):
        # runpy warns on stderr when the package import has already
        # loaded the module it is about to run as __main__.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro.serving.server",
             "--models-dir", "does-not-exist"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
            check=False,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
