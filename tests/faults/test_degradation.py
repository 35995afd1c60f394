"""Graceful degradation ladders under injected faults.

Two ladders, both answering the *same verdict* a healthy run would:

* engine: native SAT kernel → pure-Python propagation when the kernel
  fails to load or faults at runtime (watch lists migrate back to Python
  mid-solve);
* backend: ``smtlib-pipe`` → the in-tree ``dpllt`` engine
  when the external solver binary dies twice on one check, recorded as a
  structured degradation event in the executor's statistics.
"""

import pytest

from repro import faults
from repro.service.pool import _DEGRADABLE_BACKENDS, WorkerPool
from repro.smt import satkernel
from repro.smt import Ge, IntVal, IntVar, Le
from repro.smt.backend import SmtLibPipeBackend
from repro.smt.sat import SatResult, SatSolver
from repro.utils.errors import SolverError

_KERNEL_AVAILABLE = satkernel.load() is not None

#: UNSAT over two variables — every solve path needs several propagation
#: rounds, so a mid-solve kernel fault always has work left to hand over.
_UNSAT_CNF = [[1, 2], [1, -2], [-1, 2], [-1, -2]]


def _fresh_cnf_solver(**kwargs):
    solver = SatSolver(**kwargs)
    solver.new_var()
    solver.new_var()
    solver.add_clauses(_UNSAT_CNF)
    return solver


class TestKernelLadder:
    def test_load_fault_falls_back_to_python(self):
        faults.install("kernel.load:crash:max=0")
        solver = _fresh_cnf_solver()
        assert solver.kernel_active is False
        assert solver.solve() is SatResult.UNSAT

    @pytest.mark.skipif(not _KERNEL_AVAILABLE, reason="native kernel not built")
    def test_runtime_fault_degrades_mid_solve(self):
        faults.install("kernel.propagate:crash:after=1,max=1")
        solver = _fresh_cnf_solver()
        assert solver.kernel_active is True
        assert solver.solve() is SatResult.UNSAT  # same verdict, new engine
        assert solver.kernel_active is False
        assert solver.stats.kernel_faults == 1

    @pytest.mark.skipif(not _KERNEL_AVAILABLE, reason="native kernel not built")
    def test_degraded_solver_matches_clean_python_solver(self):
        clean = _fresh_cnf_solver(use_kernel=False)
        expected = clean.solve()
        faults.install("kernel.propagate:crash:after=1,max=1")
        degraded = _fresh_cnf_solver()
        assert degraded.solve() is expected


class TestPipeLadder:
    def test_one_crash_is_replayed_transparently(self, pipe_stub):
        backend = SmtLibPipeBackend(command=pipe_stub())
        x = IntVar("x")
        backend.add(Ge(x, IntVal(1)), Le(x, IntVal(10)))
        faults.install("pipe.check:crash:max=1")
        assert backend.check().name == "SAT"
        assert backend.statistics()["pipe_restarts"] == 1
        backend.close()

    def test_two_crashes_exhaust_the_replay(self, pipe_stub):
        backend = SmtLibPipeBackend(command=pipe_stub())
        x = IntVar("x")
        backend.add(Ge(x, IntVal(1)))
        faults.install("pipe.check:crash:max=2")
        with pytest.raises(SolverError, match="failed twice"):
            backend.check()
        backend.close()


class TestBackendLadder:
    def test_lost_solver_degrades_to_dpllt(self, pipe_stub, monkeypatch):
        # The external solver dies on both attempts of the first check;
        # the executor discards the broken session, re-solves on dpllt,
        # and still reports figure1's real verdict.
        monkeypatch.setenv("REPRO_SMT_SOLVER", pipe_stub())
        faults.install("pipe.check:crash:max=2")
        pool = WorkerPool(jobs=0)
        try:
            response = pool.submit(
                {"op": "verify", "workload": "figure1", "backend": "smtlib-pipe"}
            )
            assert response["ok"]
            assert response["result"]["verdict"] == "violation"
            stats = response["result"]["solver_statistics"]
            assert stats["degraded_from"] == "smtlib-pipe"
            events = pool.statistics()["degradations"]
            assert len(events) == 1
            assert events[0]["layer"] == "backend"
            assert events[0]["from"] == "smtlib-pipe"
            assert events[0]["to"] == "dpllt"
            assert events[0]["workload"] == "figure1"
        finally:
            pool.close()

    def test_native_backend_is_not_laddered(self, monkeypatch):
        # dpllt has no fallback below it; a genuine solver bug must
        # surface as an error, never as a silently different engine.
        pool = WorkerPool(jobs=0)
        try:
            executor = pool._inline
            assert "dpllt" not in _DEGRADABLE_BACKENDS
            response = pool.submit({"op": "verify", "workload": "figure1"})
            assert response["ok"]
            assert "degraded_from" not in (
                response["result"].get("solver_statistics") or {}
            )
            assert executor.degradations == []
        finally:
            pool.close()
