"""End-to-end tests of the default SMT backend (incremental DPLL(T))."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    Add,
    And,
    App,
    BoolVar,
    CheckResult,
    Distinct,
    DpllTBackend,
    Eq,
    Function,
    Ge,
    Gt,
    Iff,
    Implies,
    IntVal,
    IntVar,
    Ite,
    Le,
    Lt,
    Model,
    Mul,
    Ne,
    Not,
    Or,
    Sub,
    uninterpreted_sort,
    Var,
)
from repro.smt.smtlib import guess_logic, to_smtlib
from repro.utils.errors import SolverError


class TestBasicChecks:
    def test_empty_solver_is_sat(self):
        assert DpllTBackend().check() is CheckResult.SAT

    def test_simple_arith_sat_with_model(self):
        s = DpllTBackend()
        x, y = IntVar("x"), IntVar("y")
        s.add(Lt(x, y), Le(y, IntVal(2)), Ge(x, IntVal(0)))
        assert s.check() is CheckResult.SAT
        m = s.model()
        assert 0 <= m.value_of("x") < m.value_of("y") <= 2

    def test_simple_arith_unsat(self):
        s = DpllTBackend()
        x = IntVar("x")
        s.add(Lt(x, IntVal(0)), Gt(x, IntVal(0)))
        assert s.check() is CheckResult.UNSAT

    def test_model_before_check_raises(self):
        with pytest.raises(SolverError):
            DpllTBackend().model()

    def test_model_after_unsat_raises(self):
        s = DpllTBackend()
        x = IntVar("x")
        s.add(Lt(x, x))
        s.check()
        with pytest.raises(SolverError):
            s.model()

    def test_add_requires_bool(self):
        s = DpllTBackend()
        with pytest.raises(SolverError):
            s.add(IntVar("x"))
        with pytest.raises(SolverError):
            s.add("not a term")

    def test_model_satisfies_assertions(self):
        s = DpllTBackend()
        x, y, z = IntVar("x"), IntVar("y"), IntVar("z")
        a = BoolVar("a")
        assertions = [
            Or(a, Lt(x, y)),
            Implies(a, Eq(z, Add(x, y))),
            Le(IntVal(0), x),
            Le(x, IntVal(5)),
            Lt(y, IntVal(4)),
        ]
        s.add(*assertions)
        assert s.check() is CheckResult.SAT
        m = s.model()
        for assertion in assertions:
            assert m.satisfies(assertion), f"model violates {assertion}"


class TestBooleanAndMixed:
    def test_pure_boolean(self):
        s = DpllTBackend()
        a, b, c = BoolVar("a"), BoolVar("b"), BoolVar("c")
        s.add(Or(a, b), Or(Not(a), c), Or(Not(b), c), Not(c))
        assert s.check() is CheckResult.UNSAT

    def test_boolean_drives_arithmetic(self):
        s = DpllTBackend()
        a = BoolVar("a")
        x = IntVar("x")
        s.add(Implies(a, Le(x, IntVal(0))), Implies(Not(a), Le(x, IntVal(1))), Ge(x, IntVal(5)))
        assert s.check() is CheckResult.UNSAT

    def test_ite_integer(self):
        s = DpllTBackend()
        x, y = IntVar("x"), IntVar("y")
        cond = Lt(x, IntVal(0))
        s.add(Eq(y, Ite(cond, IntVal(-1), IntVal(1))), Ge(x, IntVal(3)))
        assert s.check() is CheckResult.SAT
        assert s.model().value_of("y") == 1

    def test_distinct_pigeonhole(self):
        s = DpllTBackend()
        xs = [IntVar(f"x{i}") for i in range(5)]
        s.add(Distinct(xs))
        for x in xs:
            s.add(Ge(x, IntVal(0)), Lt(x, IntVal(5)))
        assert s.check() is CheckResult.SAT
        values = sorted(s.model().value_of(f"x{i}") for i in range(5))
        assert values == [0, 1, 2, 3, 4]

    def test_distinct_pigeonhole_unsat(self):
        s = DpllTBackend()
        xs = [IntVar(f"x{i}") for i in range(4)]
        s.add(Distinct(xs))
        for x in xs:
            s.add(Ge(x, IntVal(0)), Lt(x, IntVal(3)))
        assert s.check() is CheckResult.UNSAT

    def test_general_lia(self):
        s = DpllTBackend()
        x, y = IntVar("x"), IntVar("y")
        s.add(Eq(Add(Mul(3, x), Mul(5, y)), IntVal(31)), Ge(x, IntVal(0)), Ge(y, IntVal(0)))
        assert s.check() is CheckResult.SAT
        m = s.model()
        assert 3 * m.value_of("x") + 5 * m.value_of("y") == 31

    def test_lia_parity_unsat(self):
        s = DpllTBackend()
        x = IntVar("x")
        # 2x = 7 has no integer solution.
        s.add(Eq(Mul(2, x), IntVal(7)))
        assert s.check() is CheckResult.UNSAT


class TestEuf:
    def test_euf_transitivity(self):
        u = uninterpreted_sort("U")
        x, y, z = Var("x", u), Var("y", u), Var("z", u)
        s = DpllTBackend()
        s.add(Eq(x, y), Eq(y, z), Ne(x, z))
        assert s.check() is CheckResult.UNSAT

    def test_euf_function_congruence(self):
        u = uninterpreted_sort("U")
        f = Function("f", (u,), u)
        x, y = Var("x", u), Var("y", u)
        s = DpllTBackend()
        s.add(Eq(x, y), Ne(App(f, x), App(f, y)))
        assert s.check() is CheckResult.UNSAT

    def test_euf_sat(self):
        u = uninterpreted_sort("U")
        x, y = Var("x", u), Var("y", u)
        s = DpllTBackend()
        s.add(Ne(x, y))
        assert s.check() is CheckResult.SAT
        m = s.model()
        assert m.value_of("x") != m.value_of("y")


class TestPushPopAndAssumptions:
    def test_push_pop(self):
        s = DpllTBackend()
        x = IntVar("x")
        s.add(Ge(x, IntVal(0)))
        s.push()
        s.add(Lt(x, IntVal(0)))
        assert s.check() is CheckResult.UNSAT
        s.pop()
        assert s.check() is CheckResult.SAT

    def test_pop_without_push(self):
        with pytest.raises(SolverError):
            DpllTBackend().pop()

    def test_assumptions_do_not_persist(self):
        s = DpllTBackend()
        x = IntVar("x")
        s.add(Ge(x, IntVal(0)))
        assert s.check(Lt(x, IntVal(0))) is CheckResult.UNSAT
        assert s.check() is CheckResult.SAT

    def test_statistics_available(self):
        s = DpllTBackend()
        x = IntVar("x")
        s.add(Lt(x, IntVal(3)))
        s.check()
        stats = s.statistics()
        assert stats["atoms"] >= 1
        assert DpllTBackend().statistics() == {}


class TestSmtlibExport:
    def test_logic_guess(self):
        x, y = IntVar("x"), IntVar("y")
        assert guess_logic([Le(x, y)]) == "QF_IDL"
        assert guess_logic([Le(Mul(2, x), y)]) == "QF_LIA"
        u = uninterpreted_sort("U")
        assert guess_logic([Eq(Var("a", u), Var("b", u))]) == "QF_UF"

    def test_script_structure(self):
        x, y = IntVar("x"), IntVar("y")
        script = to_smtlib([Lt(x, y)], comments=["figure 1 trace"])
        assert script.startswith("; figure 1 trace")
        assert "(set-logic QF_IDL)" in script
        assert "(declare-fun x () Int)" in script
        assert "(assert (< x y))" in script
        assert script.rstrip().endswith("(get-model)")

    def test_uninterpreted_declarations(self):
        u = uninterpreted_sort("Msg")
        f = Function("payload", (u,), u)
        a, b = Var("a", u), Var("b", u)
        script = to_smtlib([Eq(App(f, a), b)])
        assert "(declare-sort Msg 0)" in script
        assert "(declare-fun payload (Msg) Msg)" in script


# ---------------------------------------------------------------------------
# Property-based cross-check against brute force over a small finite domain
# ---------------------------------------------------------------------------

_NAMES = ["x", "y", "z"]


@st.composite
def small_formula(draw, depth=2):
    """Random mixed Boolean/difference-arithmetic formulas over x, y, z."""
    x, y, z = (IntVar(n) for n in _NAMES)
    int_terms = [x, y, z, IntVal(draw(st.integers(-2, 2)))]

    def atom():
        kind = draw(st.integers(0, 2))
        a = draw(st.sampled_from(int_terms))
        b = draw(st.sampled_from(int_terms))
        if kind == 0:
            return Le(a, b)
        if kind == 1:
            return Lt(a, b)
        return Eq(a, b)

    if depth == 0:
        return atom()
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return atom()
    if choice == 1:
        return Not(draw(small_formula(depth=depth - 1)))
    if choice == 2:
        return And(draw(small_formula(depth=depth - 1)), draw(small_formula(depth=depth - 1)))
    if choice == 3:
        return Or(draw(small_formula(depth=depth - 1)), draw(small_formula(depth=depth - 1)))
    return Implies(draw(small_formula(depth=depth - 1)), draw(small_formula(depth=depth - 1)))


def _finite_domain_sat(formula, lo=-3, hi=3):
    for values in itertools.product(range(lo, hi + 1), repeat=3):
        if Model(dict(zip(_NAMES, values))).eval(formula):
            return True
    return False


class TestSolverProperty:
    @settings(max_examples=60, deadline=None)
    @given(small_formula())
    def test_solver_agrees_with_finite_enumeration_when_sat(self, formula):
        """If brute force over [-3,3]^3 finds a model, the solver must say SAT,
        and the solver's own model must satisfy the formula."""
        s = DpllTBackend()
        s.add(formula)
        result = s.check()
        brute = _finite_domain_sat(formula)
        if brute:
            assert result is CheckResult.SAT
        if result is CheckResult.SAT:
            assert s.model().satisfies(formula)

    @settings(max_examples=40, deadline=None)
    @given(small_formula(), small_formula())
    def test_unsat_conjunction_is_order_independent(self, f1, f2):
        s1, s2 = DpllTBackend(), DpllTBackend()
        s1.add(f1, f2)
        s2.add(f2, f1)
        assert s1.check() == s2.check()
