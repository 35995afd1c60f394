"""Tests for linear normalisation and the theory solvers (IDL, LIA, EUF)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.linear import LinearExpr, LinearLe, atom_to_constraints, linearize
from repro.smt.sorts import INT, uninterpreted_sort
from repro.smt.terms import (
    Add,
    App,
    Eq,
    Function,
    IntVal,
    IntVar,
    Ite,
    Le,
    Lt,
    Mul,
    Neg,
    Sub,
    TRUE,
    Var,
)
from repro.smt.theory.euf import CongruenceClosure
from repro.smt.theory.idl import DifferenceLogicSolver, TheoryResult
from repro.smt.theory.lia import IncrementalLinearInt
from repro.utils.errors import SolverError


def _lia_check(constraints):
    """Decide ``constraints`` on :class:`IncrementalLinearInt`: constraint
    ``i`` is loaded as bounds under tag ``i``, then one final check."""
    lia = IncrementalLinearInt()
    for index, constraint in enumerate(constraints):
        conflict = lia.assert_lit(index, (constraint,), check=False)
        if conflict is not None:
            return TheoryResult(satisfiable=False, conflict=conflict)
    return lia.final_check()


class TestLinearExpr:
    def test_constant(self):
        c = LinearExpr.from_dict({}, 5)
        assert c.is_constant and c.const == 5
        assert LinearExpr.from_dict({"x": 0}, 5) == c

    def test_from_dict_sorts_and_drops_zeros(self):
        a = LinearExpr.from_dict({"y": 1, "x": 2, "z": 0}, 3)
        assert a.variables() == ("x", "y")
        assert a.as_dict() == {"x": 2, "y": 1}

    def test_negate(self):
        a = LinearExpr.from_dict({"x": 2, "y": -1}, 3)
        negated = a.negate()
        assert negated.as_dict() == {"x": -2, "y": 1}
        assert negated.const == -3
        assert negated.variables() == a.variables()

    def test_evaluate(self):
        a = LinearExpr.from_dict({"x": 2, "y": -1}, 1)
        assert a.evaluate({"x": 3, "y": 4}) == 3

    def test_str(self):
        a = LinearExpr.from_dict({"x": 1, "y": -1})
        assert "x" in str(a) and "y" in str(a)


class TestLinearize:
    def test_simple_forms(self):
        x, y = IntVar("x"), IntVar("y")
        expr = linearize(Add(Mul(2, x), Neg(y), IntVal(3)))
        assert expr.as_dict() == {"x": 2, "y": -1}
        assert expr.const == 3

    def test_sub(self):
        x, y = IntVar("x"), IntVar("y")
        expr = linearize(Sub(x, y))
        assert expr.as_dict() == {"x": 1, "y": -1}

    def test_nullary_app_is_variable(self):
        c = Function("c", (), INT)
        expr = linearize(App(c))
        assert expr.as_dict() == {"c": 1}

    def test_rejects_bool(self):
        with pytest.raises(SolverError):
            linearize(TRUE)

    def test_rejects_ite(self):
        x = IntVar("x")
        with pytest.raises(SolverError):
            linearize(Ite(Le(x, IntVal(0)), x, IntVal(0)))


class TestAtomToConstraints:
    def test_le_positive_and_negative(self):
        x, y = IntVar("x"), IntVar("y")
        atom = Le(x, y)
        (pos,) = atom_to_constraints(atom, True)
        assert pos.as_dict() if hasattr(pos, "as_dict") else True
        assert pos.expr.as_dict() == {"x": 1, "y": -1}
        assert pos.bound == 0
        (neg,) = atom_to_constraints(atom, False)
        assert neg.expr.as_dict() == {"x": -1, "y": 1}
        assert neg.bound == -1

    def test_lt(self):
        x, y = IntVar("x"), IntVar("y")
        (pos,) = atom_to_constraints(Lt(x, y), True)
        assert pos.bound == -1
        (neg,) = atom_to_constraints(Lt(x, y), False)
        assert neg.bound == 0

    def test_eq_positive_gives_two(self):
        x = IntVar("x")
        constraints = atom_to_constraints(Eq(x, IntVal(4)), True)
        assert len(constraints) == 2

    def test_eq_negative_rejected(self):
        x = IntVar("x")
        with pytest.raises(SolverError):
            atom_to_constraints(Eq(x, IntVal(4)), False)

    def test_constant_offsets_fold_into_bound(self):
        x = IntVar("x")
        (c,) = atom_to_constraints(Le(Add(x, IntVal(3)), IntVal(10)), True)
        assert c.expr.as_dict() == {"x": 1}
        assert c.bound == 7

    def test_negation_involution(self):
        c = LinearLe(LinearExpr.from_dict({"x": 1, "y": -1}), 5)
        assert c.negated().negated() == c

    def test_is_difference(self):
        assert LinearLe(LinearExpr.from_dict({"x": 1, "y": -1}), 0).is_difference
        assert LinearLe(LinearExpr.from_dict({"x": 1}), 0).is_difference
        assert LinearLe(LinearExpr.from_dict({}, 0), 1).is_difference
        assert not LinearLe(LinearExpr.from_dict({"x": 2, "y": -1}), 0).is_difference
        assert not LinearLe(LinearExpr.from_dict({"x": 1, "y": 1}), 0).is_difference


def _diff(x, y, bound):
    """Constraint x - y <= bound."""
    return LinearLe(LinearExpr.from_dict({x: 1, y: -1}), bound)


def _upper(x, bound):
    return LinearLe(LinearExpr.from_dict({x: 1}), bound)


def _lower(x, bound):
    """x >= bound encoded as -x <= -bound."""
    return LinearLe(LinearExpr.from_dict({x: -1}), -bound)


class TestDifferenceLogic:
    def test_satisfiable_chain(self):
        solver = DifferenceLogicSolver()
        solver.assert_all([_diff("a", "b", -1), _diff("b", "c", -1)])
        result = solver.check()
        assert result.satisfiable
        model = result.model
        assert model["a"] - model["b"] <= -1
        assert model["b"] - model["c"] <= -1

    def test_negative_cycle_detected(self):
        solver = DifferenceLogicSolver()
        i1 = solver.assert_constraint(_diff("a", "b", -1))
        i2 = solver.assert_constraint(_diff("b", "a", -1))
        result = solver.check()
        assert not result.satisfiable
        assert set(result.conflict) == {i1, i2}

    def test_conflict_is_minimal_cycle(self):
        solver = DifferenceLogicSolver()
        solver.assert_constraint(_diff("x", "y", 5))  # irrelevant
        i1 = solver.assert_constraint(_diff("a", "b", 0))
        i2 = solver.assert_constraint(_diff("b", "c", 0))
        i3 = solver.assert_constraint(_diff("c", "a", -1))
        result = solver.check()
        assert not result.satisfiable
        assert set(result.conflict) == {i1, i2, i3}

    def test_bounds_via_zero_node(self):
        solver = DifferenceLogicSolver()
        solver.assert_all([_upper("x", 3), _lower("x", 3)])
        result = solver.check()
        assert result.satisfiable
        assert result.model["x"] == 3

    def test_infeasible_bounds(self):
        solver = DifferenceLogicSolver()
        solver.assert_all([_upper("x", 2), _lower("x", 5)])
        assert not solver.check().satisfiable

    def test_trivially_false_constant(self):
        solver = DifferenceLogicSolver()
        idx = solver.assert_constraint(LinearLe(LinearExpr.from_dict({}, 0), -1))
        result = solver.check()
        assert not result.satisfiable
        assert result.conflict == [idx]

    def test_empty_is_sat(self):
        assert DifferenceLogicSolver().check().satisfiable

    def test_non_difference_rejected(self):
        solver = DifferenceLogicSolver()
        with pytest.raises(SolverError):
            solver.assert_constraint(
                LinearLe(LinearExpr.from_dict({"x": 2, "y": -1}), 0)
            )

    def test_model_satisfies_all_constraints(self):
        solver = DifferenceLogicSolver()
        constraints = [
            _diff("a", "b", 2),
            _diff("b", "c", -3),
            _diff("c", "a", 5),
            _upper("a", 10),
            _lower("c", -7),
        ]
        solver.assert_all(constraints)
        result = solver.check()
        assert result.satisfiable
        for constraint in constraints:
            assert constraint.holds(result.model)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_agrees_with_lia_solver(self, triples):
        """IDL and the general LIA solver must agree on difference problems."""
        constraints = [
            _diff(f"v{a}", f"v{b}", c) for a, b, c in triples if a != b
        ]
        if not constraints:
            return
        idl = DifferenceLogicSolver()
        idl.assert_all(constraints)
        assert idl.check().satisfiable == _lia_check(constraints).satisfiable


class TestIncrementalLinearInt:
    def test_satisfiable_general(self):
        # 2x + 3y <= 12, x >= 1, y >= 1
        result = _lia_check(
            [
                LinearLe(LinearExpr.from_dict({"x": 2, "y": 3}), 12),
                _lower("x", 1),
                _lower("y", 1),
            ]
        )
        assert result.satisfiable
        x, y = result.model["x"], result.model["y"]
        assert 2 * x + 3 * y <= 12 and x >= 1 and y >= 1

    def test_rational_but_not_integer_feasible(self):
        # 2x >= 1 and 2x <= 1 forces x = 1/2: no integer solution.
        result = _lia_check(
            [
                LinearLe(LinearExpr.from_dict({"x": 2}), 1),
                LinearLe(LinearExpr.from_dict({"x": -2}), -1),
            ]
        )
        assert not result.satisfiable

    def test_rationally_infeasible_with_explanation(self):
        result = _lia_check([_upper("x", 0), _upper("unrelated", 100), _lower("x", 1)])
        assert not result.satisfiable
        assert 0 in result.conflict and 2 in result.conflict

    def test_equality_style_pair(self):
        # x + y == 7 and x - y == 1  =>  x=4, y=3
        result = _lia_check(
            [
                LinearLe(LinearExpr.from_dict({"x": 1, "y": 1}), 7),
                LinearLe(LinearExpr.from_dict({"x": -1, "y": -1}), -7),
                LinearLe(LinearExpr.from_dict({"x": 1, "y": -1}), 1),
                LinearLe(LinearExpr.from_dict({"x": -1, "y": 1}), -1),
            ]
        )
        assert result.satisfiable
        assert result.model["x"] == 4 and result.model["y"] == 3

    def test_empty_is_sat(self):
        assert _lia_check([]).satisfiable

    def test_model_satisfies_constraints(self):
        constraints = [
            LinearLe(LinearExpr.from_dict({"a": 3, "b": -2}), 7),
            LinearLe(LinearExpr.from_dict({"a": -1, "b": -1}), -2),
            _upper("a", 50),
            _upper("b", 50),
        ]
        result = _lia_check(constraints)
        assert result.satisfiable
        for constraint in constraints:
            assert constraint.holds(result.model)


class TestCongruenceClosure:
    def test_transitivity(self):
        x, y, z = (Var(n, uninterpreted_sort("U")) for n in "xyz")
        cc = CongruenceClosure()
        cc.assert_equal(x, y)
        cc.assert_equal(y, z)
        cc.assert_distinct(x, z)
        result = cc.check()
        assert not result.satisfiable

    def test_congruence_of_applications(self):
        u = uninterpreted_sort("U")
        f = Function("f", (u,), u)
        x, y = Var("x", u), Var("y", u)
        cc = CongruenceClosure()
        cc.assert_equal(x, y)
        cc.assert_distinct(App(f, x), App(f, y))
        assert not cc.check().satisfiable

    def test_satisfiable_distinct(self):
        u = uninterpreted_sort("U")
        x, y = Var("x", u), Var("y", u)
        cc = CongruenceClosure()
        cc.assert_distinct(x, y)
        result = cc.check()
        assert result.satisfiable
        assert result.model["x"] != result.model["y"]

    def test_nested_congruence(self):
        u = uninterpreted_sort("U")
        f = Function("f", (u,), u)
        x = Var("x", u)
        # f(f(f(x))) = x and f(x) = x implies f(f(x)) = x etc.
        cc = CongruenceClosure()
        fx = App(f, x)
        ffx = App(f, fx)
        fffx = App(f, ffx)
        cc.assert_equal(fffx, x)
        cc.assert_equal(fx, x)
        cc.assert_distinct(ffx, x)
        assert not cc.check().satisfiable

    def test_conflict_minimisation_drops_irrelevant(self):
        u = uninterpreted_sort("U")
        a, b, c, d = (Var(n, u) for n in "abcd")
        cc = CongruenceClosure()
        irrelevant = cc.assert_equal(c, d)
        i1 = cc.assert_equal(a, b)
        i2 = cc.assert_distinct(a, b)
        result = cc.check()
        assert not result.satisfiable
        assert irrelevant not in result.conflict
        assert set(result.conflict) == {i1, i2}

    def test_sort_mismatch_rejected(self):
        u1, u2 = uninterpreted_sort("A"), uninterpreted_sort("B")
        with pytest.raises(SolverError):
            CongruenceClosure().assert_equal(Var("x", u1), Var("y", u2))

    def test_empty_is_sat(self):
        assert CongruenceClosure().check().satisfiable
