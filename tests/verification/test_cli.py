"""Tests for the ``mcapi-verify`` command-line interface."""

import pytest

from repro.verification.cli import build_parser, main


class TestArgumentParsing:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "figure1"
        assert args.seed == 0
        assert args.match_pairs == "endpoint"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "nope"])

    @pytest.mark.parametrize("flag", ["--portfolio", "--portfolio-theory"])
    def test_removed_portfolio_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--workload", "pipeline", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_theory_mode_flag_rejected(self):
        """One theory integration is left, so there is nothing to pick."""
        parser = build_parser()
        assert "--theory-mode" not in parser.format_help()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["--workload", "figure1", "--theory-mode", "offline"])
        assert exit_info.value.code == 2

    def test_retired_smtlib_backend_rejected(self, monkeypatch, capsys):
        """The one-shot ``smtlib`` backend is gone: naming it is a usage
        error even with an external solver configured, never a silent
        answer from another backend."""
        monkeypatch.setenv("REPRO_SMT_SOLVER", "true")
        with pytest.raises(SystemExit) as exit_info:
            main(["--workload", "figure1", "--backend", "smtlib"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'smtlib'" in capsys.readouterr().err


class TestMain:
    def test_figure1_violation_exit_code(self, capsys):
        code = main(["--workload", "figure1", "--property", "a-is-y"])
        captured = capsys.readouterr().out
        assert code == 1
        assert "violation" in captured
        assert "matching" in captured

    def test_safe_workload_exit_code(self, capsys):
        code = main(["--workload", "pipeline", "--senders", "3"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "safe" in captured

    def test_show_trace_and_smt(self, capsys):
        code = main(
            [
                "--workload",
                "figure1",
                "--property",
                "a-is-y",
                "--show-trace",
                "--show-smt",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "SendEvent" in captured
        assert "(set-logic" in captured

    def test_precise_match_pairs_option(self, capsys):
        code = main(
            ["--workload", "figure1", "--property", "a-is-y", "--match-pairs", "precise"]
        )
        assert code == 1

    def test_racy_fanin_workload(self, capsys):
        code = main(["--workload", "racy_fanin", "--senders", "2"])
        assert code == 1  # the first-from-sender0 assertion is violable

    def test_pair_fifo_flag(self, capsys):
        code = main(["--workload", "figure1", "--property", "a-is-y", "--pair-fifo"])
        assert code == 1

    @pytest.mark.parametrize("extra", [[], ["--repeat", "2"]])
    def test_deadlocked_recording_is_a_usage_error(self, extra, capsys):
        """Both lanes record through one helper: a blocked recording outside
        deadlock mode exits 2 with a hint, and deadlock mode analyses it."""
        assert main(["--workload", "circular_wait"] + extra) == 2
        assert "--check-deadlock" in capsys.readouterr().err
        assert main(["--workload", "circular_wait", "--check-deadlock"] + extra) == 1


class TestBatchMode:
    def test_repeat_with_jobs_dedups_and_reports(self, capsys):
        code = main(["--workload", "racy_fanin", "--repeat", "4", "--jobs", "2"])
        captured = capsys.readouterr().out
        assert code == 1  # the racy assertion is violable
        assert "batch: 4 traces, 1 solved" in captured
        assert captured.count("verdict=violation") == 4

    def test_safe_batch_exit_code(self, capsys):
        code = main(["--workload", "pipeline", "--repeat", "3", "--jobs", "2"])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("verdict=safe") == 3

    def test_cache_dir_answers_second_run_without_solving(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "verdicts")
        args = ["--workload", "pipeline", "--repeat", "2", "--cache-dir", cache_dir]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        captured = capsys.readouterr().out
        assert "2 traces, 0 solved" in captured

    def test_solver_knob_flags(self, capsys):
        code = main(
            [
                "--workload",
                "racy_fanin",
                "--stats",
                "--no-reduce-db",
                "--no-idl-propagation",
                "--theory-bump",
                "0",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 1  # racy fan-in assertion is violated
        assert "reduce_db_rounds = 0" in captured
        assert "theory_propagations_idl = 0" in captured

    def test_solver_knobs_travel_into_batch_mode(self, capsys):
        code = main(
            ["--workload", "pipeline", "--repeat", "2", "--no-reduce-db"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "verdict=safe" in captured

    def test_stats_include_hot_path_counters(self, capsys):
        code = main(["--workload", "racy_fanin", "--stats"])
        captured = capsys.readouterr().out
        assert code == 1
        assert "reduce_db_rounds" in captured
        assert "max_live_learned" in captured
        assert "theory_propagations_idl" in captured
        assert "theory_propagations_euf" in captured


class TestServerUnavailable:
    """``--server`` pointed at nothing must fail fast with EX_UNAVAILABLE."""

    def _unused_address(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return f"127.0.0.1:{port}"

    def test_connection_refused_exits_69(self, capsys):
        code = main(
            ["--server", self._unused_address(), "--workload", "figure1"]
        )
        captured = capsys.readouterr()
        assert code == 69  # EX_UNAVAILABLE
        error_lines = [line for line in captured.err.splitlines() if line]
        assert len(error_lines) == 1
        assert "cannot reach verification service" in error_lines[0]
        assert "mcapi-verify serve" in error_lines[0]

    def test_shutdown_of_missing_daemon_exits_69(self, capsys):
        code = main(["shutdown", "--server", self._unused_address()])
        assert code == 69
        assert "cannot reach" in capsys.readouterr().err
