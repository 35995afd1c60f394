"""Tests for the pooled SMT-LIB pipe backend: one external solver process
kept alive across checks, with recycle, crash-replay and deadline handling.

The stub solvers here are *interactive*: they read SMT-LIB commands from
stdin and answer ``(check-sat)`` / ``(get-model)`` / ``(echo ...)`` the way
a real z3/cvc5 session does, so the tests exercise the actual marker-sync
protocol rather than a canned transcript.
"""

import os
import stat
import sys
import time

import pytest

from repro.smt import (
    CheckResult,
    DpllTBackend,
    Ge,
    IntVal,
    IntVar,
    Le,
    Lt,
    available_backends,
    create_backend,
)
from repro.smt.backend import SmtLibPipeBackend
from repro.utils.errors import BackendUnavailableError, SolverError

x, y = IntVar("x"), IntVar("y")


def _interactive_stub(
    tmp_path,
    verdicts="sat",
    model="( (define-fun x () Int 4) (define-fun y () Int 1) )",
    crash_after_checks=None,
    sleep_on_check=0.0,
    name="pipe-solver",
) -> str:
    """An executable speaking interactive SMT-LIB over stdin/stdout.

    ``verdicts`` is a comma-separated script of ``(check-sat)`` answers;
    the last one repeats.  ``crash_after_checks=K`` makes the process exit
    abruptly (no verdict) on check K+1, like a segfaulting solver.
    """
    script = tmp_path / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys, time\n"
        f"verdicts = {verdicts!r}.split(',')\n"
        f"crash_after = {crash_after_checks!r}\n"
        f"sleep_on_check = {sleep_on_check!r}\n"
        "checks = 0\n"
        "for line in sys.stdin:\n"
        "    line = line.strip()\n"
        "    if line.startswith('(echo'):\n"
        "        print(line.split('\"')[1]); sys.stdout.flush()\n"
        "    elif line == '(check-sat)':\n"
        "        if crash_after is not None and checks >= crash_after:\n"
        "            sys.exit(9)\n"
        "        if sleep_on_check:\n"
        "            time.sleep(sleep_on_check)\n"
        "        print(verdicts[min(checks, len(verdicts) - 1)])\n"
        "        sys.stdout.flush()\n"
        "        checks += 1\n"
        "    elif line == '(get-model)':\n"
        f"        print('''{model}'''); sys.stdout.flush()\n"
        "    elif line == '(exit)':\n"
        "        break\n"
    )
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return str(script)


class TestPipeSession:
    def test_registered_backend(self):
        assert "smtlib-pipe" in available_backends()

    def test_unconfigured_unavailable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SMT_SOLVER", raising=False)
        with pytest.raises(BackendUnavailableError):
            SmtLibPipeBackend()
        assert not SmtLibPipeBackend.is_available()

    def test_one_process_many_checks(self, tmp_path):
        backend = SmtLibPipeBackend(command=_interactive_stub(tmp_path))
        backend.add(Ge(x, IntVal(0)))
        for _ in range(5):
            assert backend.check() is CheckResult.SAT
        assert backend.model().value_of("x") == 4
        stats = backend.statistics()
        assert stats["external_checks"] == 5
        # One warm session the whole way: never recycled, never restarted.
        assert "pipe_restarts" not in stats
        assert "pipe_recycles" not in stats
        backend.close()

    def test_verdict_sequence_and_assumptions(self, tmp_path):
        command = _interactive_stub(tmp_path, verdicts="sat,unsat,unknown")
        backend = SmtLibPipeBackend(command=command)
        backend.add(Ge(x, IntVal(0)))
        assert backend.check() is CheckResult.SAT
        assert backend.check(Lt(x, IntVal(0))) is CheckResult.UNSAT
        with pytest.raises(SolverError):
            backend.model()  # last check was not SAT
        assert backend.check() is CheckResult.UNKNOWN
        backend.close()

    def test_push_pop_mirror(self, tmp_path):
        backend = SmtLibPipeBackend(command=_interactive_stub(tmp_path))
        backend.add(Ge(x, IntVal(0)))
        backend.push()
        backend.add(Le(x, IntVal(5)))
        assert backend.check() is CheckResult.SAT
        backend.pop()
        assert backend._assertions == [Ge(x, IntVal(0))]
        with pytest.raises(SolverError):
            backend.pop()
        backend.close()

    def test_recycle_after_replays_assertions(self, tmp_path):
        backend = SmtLibPipeBackend(
            command=_interactive_stub(tmp_path), recycle_after=2
        )
        backend.add(Ge(x, IntVal(0)))
        for _ in range(5):
            assert backend.check() is CheckResult.SAT
        stats = backend.statistics()
        assert stats["external_checks"] == 5
        assert stats["pipe_recycles"] == 2  # before checks 3 and 5
        assert "pipe_restarts" not in stats  # recycle is in-place, not a crash
        backend.close()

    def test_crash_mid_check_replays_and_retries(self, tmp_path):
        """A solver dying during check K+1 costs one restart, not the
        verdict: the session replays the mirrored assertions and re-asks."""
        command = _interactive_stub(tmp_path, crash_after_checks=2)
        backend = SmtLibPipeBackend(command=command)
        backend.add(Ge(x, IntVal(0)))
        assert backend.check() is CheckResult.SAT
        assert backend.check() is CheckResult.SAT
        # The third check crashes the process; the fresh replayed session
        # (checks reset to 0 in the stub) answers it.
        assert backend.check() is CheckResult.SAT
        stats = backend.statistics()
        assert stats["external_checks"] == 3
        assert stats["pipe_restarts"] == 1
        backend.close()

    def test_always_crashing_solver_fails_loudly(self, tmp_path):
        command = _interactive_stub(tmp_path, crash_after_checks=0)
        backend = SmtLibPipeBackend(command=command)
        backend.add(Ge(x, IntVal(0)))
        with pytest.raises(SolverError) as excinfo:
            backend.check()
        assert "twice" in str(excinfo.value)
        backend.close()

    def test_deadline_returns_unknown_and_session_recovers(self, tmp_path):
        command = _interactive_stub(tmp_path, sleep_on_check=30.0)
        backend = SmtLibPipeBackend(command=command)
        backend.add(Ge(x, IntVal(0)))
        backend.set_deadline(time.monotonic() + 0.2)
        start = time.monotonic()
        assert backend.check() is CheckResult.UNKNOWN
        assert time.monotonic() - start < 5.0
        # The wedged process was discarded; a fresh one answers normally.
        backend.set_deadline(None)
        fast = SmtLibPipeBackend(command=_interactive_stub(tmp_path, name="fast"))
        fast.add(Ge(x, IntVal(0)))
        assert fast.check() is CheckResult.SAT
        fast.close()
        backend.close()

    def test_io_timeout_without_deadline_raises(self, tmp_path):
        command = _interactive_stub(tmp_path, sleep_on_check=30.0)
        backend = SmtLibPipeBackend(command=command, timeout=0.2)
        backend.add(Ge(x, IntVal(0)))
        with pytest.raises(SolverError) as excinfo:
            backend.check()
        assert "timed out" in str(excinfo.value)
        backend.close()

    def test_factory_by_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SMT_SOLVER", _interactive_stub(tmp_path, verdicts="unsat")
        )
        backend = create_backend("smtlib-pipe")
        assert isinstance(backend, SmtLibPipeBackend)
        backend.add(Lt(x, x))
        assert backend.check() is CheckResult.UNSAT
        backend.close()


class TestPipeSolverOutput:
    """What the backend makes of a solver's answers: availability, verdict
    and model parsing, chatter, dead and mute solvers."""

    def test_missing_binary_unavailable(self):
        with pytest.raises(BackendUnavailableError):
            SmtLibPipeBackend(command="definitely-not-a-solver-binary")
        assert not SmtLibPipeBackend.is_available("definitely-not-a-solver-binary")

    def test_registry_resolution_without_solver_configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_SMT_SOLVER", raising=False)
        with pytest.raises(BackendUnavailableError):
            create_backend("smtlib-pipe")

    def test_sat_with_model_parsing(self, tmp_path):
        command = _interactive_stub(
            tmp_path,
            model="(\n  (define-fun x () Int 4)\n"
            "  (define-fun y () Int (- 2))\n"
            "  (define-fun a () Bool true)\n)",
        )
        backend = SmtLibPipeBackend(command=command)
        backend.add(Ge(x, IntVal(0)))
        assert backend.check() is CheckResult.SAT
        model = backend.model()
        assert model.value_of("x") == 4
        assert model.value_of("y") == -2
        assert model.value_of("a") is True
        assert backend.statistics() == {"external_checks": 1}
        backend.close()

    def test_unknown_with_error_chatter(self, tmp_path):
        """z3/yices may print an error line next to an 'unknown' answer;
        that is an UNKNOWN verdict, not a solver failure."""
        command = _interactive_stub(
            tmp_path, verdicts='unknown\n(error "model is not available")'
        )
        backend = SmtLibPipeBackend(command=command)
        backend.add(Ge(x, IntVal(0)))
        assert backend.check() is CheckResult.UNKNOWN
        backend.close()

    def test_chatter_before_the_verdict_does_not_mask_it(self, tmp_path):
        command = _interactive_stub(
            tmp_path, verdicts='(error "line 3: unsupported option")\nunsat'
        )
        backend = SmtLibPipeBackend(command=command)
        backend.add(Lt(x, x))
        assert backend.check() is CheckResult.UNSAT
        assert "pipe_restarts" not in backend.statistics()
        backend.close()

    def test_sat_without_model_raises(self, tmp_path):
        """'sat' with no parseable model must not fabricate a default model,
        nor leave the previous check's model behind."""
        command = _interactive_stub(
            tmp_path, verdicts="unsat,sat", model='(error "model printing failed")'
        )
        backend = SmtLibPipeBackend(command=command)
        backend.add(Ge(x, IntVal(0)))
        assert backend.check() is CheckResult.UNSAT
        with pytest.raises(SolverError, match="no model"):
            backend.check()
        with pytest.raises(SolverError):
            backend.model()
        backend.close()

    def test_garbage_output_raises(self, tmp_path):
        backend = SmtLibPipeBackend(
            command=_interactive_stub(tmp_path, verdicts="flagrant")
        )
        backend.add(Ge(x, IntVal(0)))
        with pytest.raises(SolverError, match="twice"):
            backend.check()
        backend.close()

    @pytest.mark.parametrize(
        "body",
        [
            "print('boom', file=sys.stderr)\nsys.exit(3)\n",
            "sys.exit(127)\n",
        ],
        ids=["chatter-then-exit", "silent-exit"],
    )
    def test_solver_that_dies_at_startup_raises_cleanly(self, tmp_path, body):
        script = tmp_path / "dying-solver"
        script.write_text(f"#!{sys.executable}\nimport sys\n{body}")
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        backend = SmtLibPipeBackend(command=str(script))
        backend.add(Ge(x, IntVal(0)))
        with pytest.raises(SolverError, match="twice"):
            backend.check()
        assert backend.statistics() == {}
        backend.close()

    def test_stub_solver_resolved_from_path(self, tmp_path, monkeypatch):
        """The solver command may be a bare binary name found on PATH, the
        way a real z3/cvc5 deployment configures it."""
        _interactive_stub(tmp_path, verdicts="unsat", name="fake-solver")
        monkeypatch.setenv(
            "PATH", f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}"
        )
        monkeypatch.setenv("REPRO_SMT_SOLVER", "fake-solver")
        assert SmtLibPipeBackend.is_available()
        backend = SmtLibPipeBackend()
        backend.add(Lt(x, x))
        assert backend.check() is CheckResult.UNSAT
        backend.close()


class TestPipeDifferential:
    """The pipe session and the in-tree DPLL(T) backend must agree."""

    @pytest.mark.parametrize(
        "verdict, assertions",
        [
            ("sat", [Ge(x, IntVal(0)), Le(y, IntVal(9))]),
            ("unsat", [Lt(x, y), Lt(y, x)]),
            ("unknown", [Ge(x, IntVal(0))]),
        ],
        ids=["sat", "unsat", "unknown"],
    )
    def test_pipe_matches_dpllt_verdicts(self, tmp_path, verdict, assertions):
        pipe = SmtLibPipeBackend(command=_interactive_stub(tmp_path, verdicts=verdict))
        # A zero theory budget is how the in-tree engine gives up.
        dpllt = DpllTBackend(max_iterations=0 if verdict == "unknown" else 10_000)
        for backend in (pipe, dpllt):
            backend.add(*assertions)
        assert pipe.check() is dpllt.check() is CheckResult(verdict)
        if verdict == "sat":
            for model in (pipe.model(), dpllt.model()):
                assert all(model.satisfies(term) for term in assertions)
        pipe.close()

    def test_session_verdicts_match_across_backends(self, tmp_path):
        """A full verification session reaches the same SAFE verdict
        through the pipe as through the in-tree engine."""
        from repro.verification import Verdict, VerificationSession
        from repro.workloads import pipeline

        pipe = SmtLibPipeBackend(command=_interactive_stub(tmp_path, verdicts="unsat"))
        results = {}
        for backend in (pipe, DpllTBackend()):
            session = VerificationSession.from_program(
                pipeline(3), seed=0, backend=backend
            )
            result = session.verdict()
            results[result.backend] = result.verdict
        assert results == {"smtlib-pipe": Verdict.SAFE, "dpllt": Verdict.SAFE}
        pipe.close()

    def test_session_reuses_one_pipe_process_across_checks(self, tmp_path):
        """Both verification questions of a session ride the same solver
        process — the entire point of the pooled backend."""
        from repro.verification import VerificationSession
        from repro.workloads import pipeline

        backend = SmtLibPipeBackend(
            command=_interactive_stub(tmp_path, verdicts="unsat")
        )
        session = VerificationSession.from_program(pipeline(3), seed=0, backend=backend)
        session.verdict()
        session.verdict()  # memoised, but enumerate below is not
        stats = backend.statistics()
        assert stats["external_checks"] >= 1
        assert "pipe_restarts" not in stats


@pytest.mark.skipif(
    not SmtLibPipeBackend.is_available(),
    reason="no external SMT solver configured (set REPRO_SMT_SOLVER)",
)
class TestPipeAgainstRealSolver:
    """Cross-checks that only run when an external solver is installed."""

    def test_agrees_with_dpllt(self):
        assertions = [Lt(x, y), Lt(y, IntVal(3)), Lt(IntVal(0), x)]
        external = SmtLibPipeBackend()
        external.add(*assertions)
        assert external.check() is CheckResult.SAT
        model = external.model()
        assert 0 < model.value_of("x") < model.value_of("y") < 3
        external.close()
        dpllt = DpllTBackend()
        dpllt.add(*assertions)
        assert dpllt.check() is CheckResult.SAT
