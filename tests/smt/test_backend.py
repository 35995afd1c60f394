"""Tests for the solver-backend layer: incrementality semantics, the
backend registry and SMT-LIB output parsing.  The external-solver backend
has its own suite, ``test_pipe_backend.py``."""

import pytest

from repro.smt import (
    And,
    BoolVar,
    CheckResult,
    DpllTBackend,
    Eq,
    Ge,
    IntVal,
    IntVar,
    Le,
    Lt,
    Not,
    Or,
    available_backends,
    create_backend,
    register_backend,
)
from repro.smt.backend import _parse_sexprs
from repro.smt.dpllt import IncrementalDpllTEngine
from repro.utils.errors import SolverError, UnknownBackendError


x, y, z = IntVar("x"), IntVar("y"), IntVar("z")


class TestIncrementalSemantics:
    """Push/pop, assumptions and model queries interleaved on one engine."""

    def test_push_pop_interleaved_with_check_and_model(self):
        b = DpllTBackend()
        b.add(Ge(x, IntVal(0)), Le(x, IntVal(10)))
        assert b.check() is CheckResult.SAT
        assert 0 <= b.model().value_of("x") <= 10

        b.push()
        b.add(Ge(x, IntVal(5)))
        assert b.check() is CheckResult.SAT
        assert b.model().value_of("x") >= 5

        b.push()
        b.add(Lt(x, IntVal(5)))
        assert b.check() is CheckResult.UNSAT

        b.pop()  # drop x < 5
        assert b.check() is CheckResult.SAT
        assert b.model().value_of("x") >= 5

        b.pop()  # drop x >= 5
        b.add(Lt(x, IntVal(3)))  # base-level assertion after pops
        assert b.check() is CheckResult.SAT
        assert 0 <= b.model().value_of("x") < 3

    def test_deep_scope_nesting(self):
        b = DpllTBackend()
        b.add(Ge(x, IntVal(0)))
        for bound in (8, 6, 4, 2):
            b.push()
            b.add(Le(x, IntVal(bound)))
            assert b.check() is CheckResult.SAT
            assert b.model().value_of("x") <= bound
        b.push()
        b.add(Lt(x, IntVal(0)))
        assert b.check() is CheckResult.UNSAT
        for _ in range(5):
            b.pop()
        assert b.check() is CheckResult.SAT

    def test_pop_without_push_raises(self):
        with pytest.raises(SolverError):
            DpllTBackend().pop()

    def test_model_survives_push(self):
        """Opening a scope adds no constraints; the check/model/push/probe
        pattern from the legacy facade must keep working."""
        b = DpllTBackend()
        b.add(Ge(x, IntVal(0)), Le(x, IntVal(5)))
        assert b.check() is CheckResult.SAT
        value = b.model().value_of("x")
        b.push()
        assert b.model().value_of("x") == value
        b.pop()
        with pytest.raises(SolverError):
            b.model()  # pop retires state, like the old facade

    def test_rejected_atom_does_not_corrupt_engine(self):
        """A failed add must not silently drop later atoms from the theory
        partition: subsequent use keeps failing loudly instead of going
        unsound."""
        from repro.smt import BOOL, App, Function, Var, uninterpreted_sort

        u = uninterpreted_sort("U")
        pred = Function("P", (u,), BOOL)
        b = DpllTBackend()
        bad = And(App(pred, Var("u0", u)), Eq(x, IntVal(1)), Eq(x, IntVal(2)))
        with pytest.raises(SolverError):
            b.add(bad)
        # The engine is poisoned loudly, not silently: the unsupported atom
        # is retried (and rejected) on the next flush.
        with pytest.raises(SolverError):
            b.check()

    def test_assumptions_are_call_scoped(self):
        b = DpllTBackend()
        b.add(Ge(x, IntVal(0)))
        assert b.check(Lt(x, IntVal(0))) is CheckResult.UNSAT
        assert b.check() is CheckResult.SAT
        # Assumption-UNSAT must not poison later, different assumptions.
        assert b.check(Ge(x, IntVal(7))) is CheckResult.SAT
        assert b.model().value_of("x") >= 7

    def test_compound_assumptions(self):
        b = DpllTBackend()
        a = BoolVar("a")
        b.add(Or(a, Ge(x, IntVal(10))))
        assert b.check(And(Not(a), Le(x, IntVal(3)))) is CheckResult.UNSAT
        assert b.check(Not(a)) is CheckResult.SAT
        assert b.model().value_of("x") >= 10

    def test_model_invalidated_by_add(self):
        b = DpllTBackend()
        b.add(Ge(x, IntVal(0)))
        assert b.check() is CheckResult.SAT
        b.add(Le(x, IntVal(5)))
        with pytest.raises(SolverError):
            b.model()

    def test_model_after_unsat_raises(self):
        b = DpllTBackend()
        b.add(Lt(x, x))
        assert b.check() is CheckResult.UNSAT
        with pytest.raises(SolverError):
            b.model()

    def test_learned_state_reused_across_checks(self):
        """Theory lemmas survive check boundaries: re-checking the same
        problem must not rediscover any theory conflict, and an enumeration
        never pays the first check's lemma bill twice."""
        b = DpllTBackend()
        vs = [IntVar(f"v{i}") for i in range(4)]
        for i, v in enumerate(vs):
            b.add(Ge(v, IntVal(0)), Le(v, IntVal(3)))
        for i in range(len(vs) - 1):
            b.add(Lt(vs[i], vs[i + 1]))  # forces v0<v1<v2<v3 == 0,1,2,3
        assert b.check() is CheckResult.SAT
        first_conflicts = b.engine.stats.theory_conflicts
        assert b.check() is CheckResult.SAT
        assert b.engine.stats.theory_conflicts == 0
        assert first_conflicts >= 0  # first check may or may not have conflicted
        assert b.engine.total_checks == 2

    def test_incremental_engine_does_less_work_than_cold_restarts(self):
        """An enumeration on one engine performs far fewer DPLL(T) iterations
        than rebuilding a fresh backend per query (the seed architecture).

        IDL bound propagation is pinned off in both lanes: it converts the
        ordering conflicts this workload counts into unit propagations,
        which collapses both iteration counts to the per-check minimum and
        leaves nothing for the warm-vs-cold comparison to measure."""
        def constraints():
            terms = []
            vs = [IntVar(f"w{i}") for i in range(4)]
            for v in vs:
                terms.append(Ge(v, IntVal(0)))
                terms.append(Le(v, IntVal(2)))
            terms.append(Lt(vs[0], vs[1]))
            terms.append(Lt(vs[1], vs[2]))
            return terms, vs

        terms, vs = constraints()

        # Cold: fresh backend per check, blocking clauses re-supplied.
        blocking = []
        cold_iterations = 0
        while True:
            cold = DpllTBackend(idl_propagation=False)
            cold.add_all(terms + blocking)
            result = cold.check()
            cold_iterations += cold.engine.stats.iterations
            if result is not CheckResult.SAT:
                break
            model = cold.model()
            blocking.append(
                Not(And([Eq(v, IntVal(model.value_of(v.name))) for v in vs]))
            )
        solutions_cold = len(blocking)

        # Warm: one incremental engine, same enumeration.
        warm = IncrementalDpllTEngine(idl_propagation=False)
        for term in terms:
            warm.add(term)
        warm_iterations = 0
        solutions_warm = 0
        while warm.check() is CheckResult.SAT:
            warm_iterations += warm.stats.iterations
            model = warm.model()
            solutions_warm += 1
            warm.add(Not(And([Eq(v, IntVal(model.value_of(v.name))) for v in vs])))
        warm_iterations += warm.stats.iterations

        assert solutions_warm == solutions_cold > 0
        assert warm_iterations < cold_iterations

    def test_blocking_enumeration_in_scope_restores_state(self):
        b = DpllTBackend()
        b.add(Ge(x, IntVal(0)), Le(x, IntVal(2)))
        b.push()
        seen = set()
        while b.check() is CheckResult.SAT:
            value = b.model().value_of("x")
            seen.add(value)
            b.add(Not(Eq(x, IntVal(value))))
        b.pop()
        assert seen == {0, 1, 2}
        # After popping the blocking clauses every value is reachable again.
        assert b.check(Eq(x, IntVal(0))) is CheckResult.SAT
        assert b.check(Eq(x, IntVal(2))) is CheckResult.SAT

    def test_unknown_on_iteration_limit(self):
        b = DpllTBackend(max_iterations=0)
        b.add(Ge(x, IntVal(0)))
        assert b.check() is CheckResult.UNKNOWN

    def test_statistics_shape(self):
        b = DpllTBackend()
        assert b.statistics() == {}
        b.add(Lt(x, IntVal(3)))
        b.check()
        stats = b.statistics()
        assert stats["atoms"] >= 1
        assert stats["checks"] == 1

    def test_sat_statistics_are_per_check(self):
        """sat_decisions/sat_conflicts report the last check, not the
        engine's lifetime totals."""
        b = DpllTBackend()
        vs = [IntVar(f"s{i}") for i in range(4)]
        for v in vs:
            b.add(Ge(v, IntVal(0)), Le(v, IntVal(3)))
        for i in range(len(vs) - 1):
            b.add(Lt(vs[i], vs[i + 1]))
        # Disjunctions so the SAT core must actually decide something.
        for i, v in enumerate(vs):
            b.add(Or(BoolVar(f"p{i}"), Eq(v, IntVal(i))))
        assert b.check() is CheckResult.SAT
        first = b.statistics()["sat_decisions"]
        assert b.check() is CheckResult.SAT
        second = b.statistics()["sat_decisions"]
        # A warm identical re-check decides at most as much as the first
        # check — impossible if the counter were cumulative and > 0.
        assert first > 0
        assert second <= first


class TestDefaultBackend:
    def test_default_backend_keeps_one_engine_across_checks(self):
        s = create_backend()
        assert isinstance(s, DpllTBackend)
        s.add(Ge(x, IntVal(0)))
        assert s.check() is CheckResult.SAT
        assert s.engine.total_checks == 1
        assert s.check() is CheckResult.SAT
        assert s.engine.total_checks == 2  # same engine, not rebuilt


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "dpllt" in names
        assert "smtlib-pipe" in names

    def test_retired_one_shot_name_is_unknown(self, monkeypatch):
        """``smtlib`` named the one-shot process backend; the pipe backend
        replaced it, and the old name resolves like any unknown name."""
        monkeypatch.setenv("REPRO_SMT_SOLVER", "true")
        assert "smtlib" not in available_backends()
        with pytest.raises(UnknownBackendError):
            create_backend("smtlib")

    def test_create_by_name_and_default(self):
        assert isinstance(create_backend("dpllt"), DpllTBackend)
        assert isinstance(create_backend(None), DpllTBackend)

    def test_create_passes_kwargs(self):
        backend = create_backend("dpllt", max_iterations=0)
        backend.add(Ge(x, IntVal(0)))
        assert backend.check() is CheckResult.UNKNOWN

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            create_backend("yices")
        message = str(excinfo.value)
        assert "yices" in message
        assert "dpllt" in message

    def test_instance_passthrough(self):
        backend = DpllTBackend()
        assert create_backend(backend) is backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(UnknownBackendError):
            create_backend(42)

    def test_register_custom_backend(self):
        calls = []

        def factory(**kwargs):
            calls.append(kwargs)
            return DpllTBackend(**kwargs)

        register_backend("custom-test", factory)
        try:
            backend = create_backend("custom-test", max_iterations=123)
            assert isinstance(backend, DpllTBackend)
            assert calls == [{"max_iterations": 123}]
            with pytest.raises(SolverError):
                register_backend("custom-test", factory)
            register_backend("custom-test", factory, replace=True)
        finally:
            from repro.smt import backend as backend_module

            backend_module._REGISTRY.pop("custom-test", None)


class TestSmtLibOutputParsing:
    def test_sexpr_parser(self):
        parsed = _parse_sexprs("(model (define-fun x () Int 5))")
        assert parsed == [["model", ["define-fun", "x", [], "Int", "5"]]]
        with pytest.raises(SolverError):
            _parse_sexprs(")")
