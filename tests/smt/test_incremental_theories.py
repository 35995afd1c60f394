"""Unit tests for the trail-backed incremental theory solvers.

Each theory exposes the same online protocol — ``assert_lit`` (veto with a
conflict), ``retract_to`` (undo to a trail prefix) and ``explain``
(antecedents of an entailed literal) — and these tests pin down the undo
correctness and explanation minimality the online DPLL(T) engine relies on.
"""

import pytest

from repro.smt.linear import LinearExpr, LinearLe
from repro.smt.sorts import uninterpreted_sort
from repro.smt.terms import App, Function, Var
from repro.smt.theory.euf import IncrementalCongruenceClosure
from repro.smt.theory.idl import IncrementalDifferenceLogic
from repro.smt.theory.lia import IncrementalLinearInt
from repro.utils.errors import SolverError


def _diff(x, y, bound):
    """Constraint x - y <= bound."""
    return LinearLe(LinearExpr.from_dict({x: 1, y: -1}), bound)


def _upper(x, bound):
    return LinearLe(LinearExpr.from_dict({x: 1}), bound)


def _lower(x, bound):
    """x >= bound encoded as -x <= -bound."""
    return LinearLe(LinearExpr.from_dict({x: -1}), -bound)


class TestIncrementalDifferenceLogic:
    def test_consistent_chain_and_model(self):
        idl = IncrementalDifferenceLogic()
        assert idl.assert_lit(1, [_diff("a", "b", -1)]) is None
        assert idl.assert_lit(2, [_diff("b", "c", -1)]) is None
        model = idl.model()
        assert model["a"] - model["b"] <= -1
        assert model["b"] - model["c"] <= -1

    def test_negative_cycle_conflict_is_the_cycle(self):
        idl = IncrementalDifferenceLogic()
        idl.assert_lit(1, [_diff("x", "y", 5)])  # irrelevant
        assert idl.assert_lit(2, [_diff("a", "b", 0)]) is None
        assert idl.assert_lit(3, [_diff("b", "c", 0)]) is None
        conflict = idl.assert_lit(4, [_diff("c", "a", -1)])
        assert conflict == [2, 3, 4]

    def test_retract_restores_consistency_and_potentials(self):
        idl = IncrementalDifferenceLogic()
        idl.assert_lit(1, [_diff("a", "b", -1)])
        snapshot = dict(idl._pot)
        conflict = idl.assert_lit(2, [_diff("b", "a", -1)])
        assert conflict == [1, 2]
        idl.retract_to(1)
        assert idl.num_asserted == 1
        assert dict(idl._pot) == snapshot
        # The opposite direction is fine once the cycle edge is gone.
        assert idl.assert_lit(3, [_diff("b", "a", 1)]) is None

    def test_retract_to_zero_then_reassert(self):
        idl = IncrementalDifferenceLogic()
        idl.assert_lit(1, [_upper("x", 2)])
        idl.assert_lit(2, [_lower("x", 5)])  # hmm: conflict? 2 < 5
        idl.retract_to(0)
        assert idl.num_asserted == 0
        assert idl.assert_lit(5, [_lower("x", 5)]) is None
        assert idl.assert_lit(6, [_upper("x", 7)]) is None
        model = idl.model()
        assert 5 <= model["x"] <= 7

    def test_infeasible_bounds_conflict(self):
        idl = IncrementalDifferenceLogic()
        assert idl.assert_lit(1, [_upper("x", 2)]) is None
        conflict = idl.assert_lit(2, [_lower("x", 5)])
        assert conflict == [1, 2]

    def test_constant_false_conflicts_alone(self):
        idl = IncrementalDifferenceLogic()
        idl.assert_lit(1, [_diff("a", "b", 3)])
        conflict = idl.assert_lit(2, [LinearLe(LinearExpr.from_dict({}, 0), -1)])
        assert conflict == [2]

    def test_explain_entailed_literal(self):
        idl = IncrementalDifferenceLogic()
        idl.assert_lit(1, [_diff("a", "b", -1)])
        idl.assert_lit(2, [_diff("b", "c", -1)])
        # a - c <= -2 follows from the chain.
        assert idl.assert_lit(3, [_diff("a", "c", -2)]) is None
        assert idl.explain(3) == [1, 2]

    def test_explain_rejects_unentailed(self):
        idl = IncrementalDifferenceLogic()
        idl.assert_lit(1, [_diff("a", "b", -1)])
        idl.assert_lit(2, [_diff("c", "d", -1)])
        with pytest.raises(SolverError):
            idl.explain(2)

    def test_negated_literals_are_valid_tags(self):
        idl = IncrementalDifferenceLogic()
        assert idl.assert_lit(-7, [_upper("x", 0)]) is None
        conflict = idl.assert_lit(9, [_lower("x", 1)])
        assert conflict == [-7, 9]


class TestIncrementalLinearInt:
    def test_rational_conflict_caught_on_assert(self):
        lia = IncrementalLinearInt()
        assert lia.assert_lit(1, [_upper("x", 0)]) is None
        assert lia.assert_lit(2, [_upper("unrelated", 100)]) is None
        conflict = lia.assert_lit(3, [_lower("x", 1)])
        assert conflict is not None
        assert 1 in conflict and 3 in conflict and 2 not in conflict

    def test_integer_infeasibility_deferred_to_final_check(self):
        lia = IncrementalLinearInt()
        # 2x >= 1 and 2x <= 1 forces x = 1/2: rationally fine, no integer.
        assert lia.assert_lit(1, [LinearLe(LinearExpr.from_dict({"x": 2}), 1)]) is None
        assert (
            lia.assert_lit(2, [LinearLe(LinearExpr.from_dict({"x": -2}), -1)]) is None
        )
        result = lia.final_check()
        assert not result.satisfiable
        assert set(result.conflict) <= {1, 2}

    def test_retract_then_final_check_sat(self):
        lia = IncrementalLinearInt()
        lia.assert_lit(1, [LinearLe(LinearExpr.from_dict({"x": 2, "y": 3}), 12)])
        lia.assert_lit(2, [_lower("x", 1)])
        lia.assert_lit(3, [_lower("y", 1)])
        lia.assert_lit(4, [_lower("x", 100)])
        assert not lia.final_check().satisfiable
        lia.retract_to(3)
        result = lia.final_check()
        assert result.satisfiable
        x, y = result.model["x"], result.model["y"]
        assert 2 * x + 3 * y <= 12 and x >= 1 and y >= 1

    def test_constant_false_conflicts_alone(self):
        lia = IncrementalLinearInt()
        lia.assert_lit(1, [_upper("x", 3)])
        assert lia.assert_lit(2, [LinearLe(LinearExpr.from_dict({}, 0), -1)]) == [2]

    def test_explain_entailed_literal(self):
        lia = IncrementalLinearInt()
        lia.assert_lit(1, [_upper("x", 0)])
        lia.assert_lit(2, [_upper("other", 50)])
        assert lia.assert_lit(3, [_upper("x", 5)]) is None  # implied by 1
        assert lia.explain(3) == [1]

    def test_explain_rejects_unentailed(self):
        lia = IncrementalLinearInt()
        lia.assert_lit(1, [_upper("x", 0)])
        lia.assert_lit(2, [_upper("y", 0)])
        with pytest.raises(SolverError):
            lia.explain(2)

    def test_conflict_caught_on_assert_on_a_trail_of_any_size(self):
        lia = IncrementalLinearInt()
        # A long trail of satisfiable multi-variable rows and bounds.
        for i in range(150):
            expr = LinearExpr.from_dict({f"v{i}": 1, f"v{i + 1}": 2})
            assert lia.assert_lit(10 + i, [LinearLe(expr, 40)]) is None
        assert lia.assert_lit(1, [_upper("x", 0)]) is None
        # The clash is found when it is asserted, not at final check.
        conflict = lia.assert_lit(2, [LinearLe(LinearExpr.from_dict({"x": -3}), -1)])
        assert conflict == [1, 2]
        # ... also when it runs through a tableau row.
        lia.retract_to(lia.num_asserted - 1)
        assert lia.assert_lit(3, [_lower("v1", 30)]) is None  # v0 <= -20 by lit 10
        assert lia.assert_lit(4, [_lower("v0", -5)]) == [3, 4, 10]


def _u_vars():
    u = uninterpreted_sort("U")
    return u, [Var(n, u) for n in "abcd"]


class TestIncrementalCongruenceClosure:
    def test_transitivity_conflict_is_minimal(self):
        _, (a, b, c, d) = _u_vars()
        cc = IncrementalCongruenceClosure()
        assert cc.assert_lit(1, c, d, True) is None  # irrelevant
        assert cc.assert_lit(2, a, b, True) is None
        assert cc.assert_lit(3, b, c, True) is None
        conflict = cc.assert_lit(4, a, c, False)
        assert conflict == [2, 3, 4]

    def test_congruence_conflict(self):
        u, (a, b, _, _) = _u_vars()
        f = Function("f", (u,), u)
        cc = IncrementalCongruenceClosure()
        assert cc.assert_lit(1, a, b, True) is None
        conflict = cc.assert_lit(2, App(f, a), App(f, b), False)
        assert conflict == [1, 2]

    def test_retract_unwinds_unions_and_diseqs(self):
        _, (a, b, c, _) = _u_vars()
        cc = IncrementalCongruenceClosure()
        cc.assert_lit(1, a, b, True)
        cc.assert_lit(2, b, c, True)
        assert cc.assert_lit(3, a, c, False) is not None
        cc.retract_to(1)  # only a = b remains
        assert cc.num_asserted == 1
        assert cc.assert_lit(4, a, c, False) is None  # now consistent
        # And the disequality participates in conflicts again.
        conflict = cc.assert_lit(5, b, c, True)
        assert conflict == [1, 4, 5]

    def test_entailed_propagates_registered_atoms(self):
        _, (a, b, c, _) = _u_vars()
        cc = IncrementalCongruenceClosure()
        cc.register_atom(10, a, c)
        cc.assert_lit(1, a, b, True)
        assert cc.entailed() == []
        cc.assert_lit(2, b, c, True)
        assert cc.entailed() == [10]

    def test_entailed_negative_via_disequality(self):
        _, (a, b, c, d) = _u_vars()
        cc = IncrementalCongruenceClosure()
        cc.register_atom(10, b, d)
        cc.assert_lit(1, a, b, True)
        cc.assert_lit(2, c, d, True)
        cc.assert_lit(3, a, c, False)
        assert cc.entailed() == [-10]

    def test_explain_positive_is_minimal(self):
        _, (a, b, c, d) = _u_vars()
        cc = IncrementalCongruenceClosure()
        cc.register_atom(10, a, c)
        cc.assert_lit(1, c, d, True)  # irrelevant
        cc.assert_lit(2, a, b, True)
        cc.assert_lit(3, b, c, True)
        assert cc.explain(10) == [2, 3]

    def test_explain_respects_prefix_limit(self):
        _, (a, b, c, _) = _u_vars()
        cc = IncrementalCongruenceClosure()
        cc.register_atom(10, a, c)
        cc.assert_lit(1, a, b, True)
        cc.assert_lit(2, b, c, True)
        # With only the first assertion visible the atom is not entailed.
        with pytest.raises(SolverError):
            cc.explain(10, limit=1)
        assert cc.explain(10, limit=2) == [1, 2]

    def test_explain_negative_includes_disequality(self):
        _, (a, b, c, d) = _u_vars()
        cc = IncrementalCongruenceClosure()
        cc.register_atom(10, b, d)
        cc.assert_lit(1, a, b, True)
        cc.assert_lit(2, c, d, True)
        cc.assert_lit(-3, a, c, False)
        assert cc.explain(-10) == [-3, 1, 2]

    def test_model_separates_classes(self):
        _, (a, b, c, _) = _u_vars()
        cc = IncrementalCongruenceClosure()
        cc.assert_lit(1, a, b, True)
        cc.assert_lit(2, a, c, False)
        model = cc.model()
        assert model["a"] == model["b"] != model["c"]

    def test_sort_mismatch_rejected(self):
        u1, u2 = uninterpreted_sort("A"), uninterpreted_sort("B")
        cc = IncrementalCongruenceClosure()
        with pytest.raises(SolverError):
            cc.assert_lit(1, Var("x", u1), Var("y", u2), True)
