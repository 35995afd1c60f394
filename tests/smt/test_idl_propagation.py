"""Tests for IDL bound propagation (the theory-propagation lane of
:class:`~repro.smt.theory.idl.IncrementalDifferenceLogic`).

Two layers:

* **unit** — registered difference atoms entailed by shortest paths are
  emitted exactly once, their lazy explanations name only earlier trail
  literals and are *logically entailed* (validated by re-checking the
  explanation plus the negated atom constraint UNSAT on the batch
  solver), and retraction prunes pending and reported propagations;
* **engine differential** — ``idl_propagation=True`` and ``False`` decide
  identically on the mixed-theory corpus, with the split statistics
  (``theory_propagations_idl``) nonzero only when the lane is on.
"""

import random

import pytest

from test_dpllt_oracle import _random_assertions, _solve

from repro.smt.dpllt import CheckResult
from repro.smt.linear import LinearExpr, LinearLe
from repro.smt.terms import IntVal, IntVar, Le, Lt, Or
from repro.smt.theory.idl import DifferenceLogicSolver, IncrementalDifferenceLogic
from repro.utils.errors import SolverError


def _diff(x, y, bound):
    """Constraint ``x - y <= bound``."""
    return LinearLe(LinearExpr.from_dict({x: 1, y: -1}), bound)


def _negated(constraint):
    return constraint.negated()


def _assert_entailed(explanation_constraints, constraint):
    """``explanation /\\ not constraint`` must be UNSAT on the batch solver."""
    batch = DifferenceLogicSolver()
    batch.assert_all(list(explanation_constraints) + [_negated(constraint)])
    assert not batch.check().satisfiable


class TestUnitPropagation:
    def _chain_solver(self):
        idl = IncrementalDifferenceLogic()
        # atom 10: a - c <= 0  /  c - a <= -1
        idl.register_atom(10, _diff("a", "c", 0))
        # atom 11: c - a <= -3  /  a - c <= 2
        idl.register_atom(11, _diff("c", "a", -3))
        return idl

    def test_entailed_atoms_are_emitted_with_valid_explanations(self):
        idl = self._chain_solver()
        assert idl.assert_lit(1, [_diff("a", "b", -1)]) is None
        assert idl.assert_lit(2, [_diff("b", "c", -1)]) is None
        props = idl.take_propagations()
        # a - c <= -2 follows: atom 10 positively, atom 11 negatively.
        assert sorted(props) == [-11, 10]
        constraint_of = {
            10: _diff("a", "c", 0),
            -11: _diff("a", "c", 2),
        }
        trail = {1: _diff("a", "b", -1), 2: _diff("b", "c", -1)}
        for lit in props:
            explanation = idl.explain_entailed(lit)
            assert explanation, lit
            assert set(explanation) <= set(trail)
            _assert_entailed([trail[e] for e in explanation], constraint_of[lit])

    def test_propagations_are_not_reemitted(self):
        idl = self._chain_solver()
        idl.assert_lit(1, [_diff("a", "b", -1)])
        idl.assert_lit(2, [_diff("b", "c", -1)])
        first = idl.take_propagations()
        assert first
        idl.assert_lit(3, [_diff("d", "a", 0)])
        assert not (set(idl.take_propagations()) & set(first))

    def test_asserted_atoms_are_skipped(self):
        idl = IncrementalDifferenceLogic()
        idl.register_atom(10, _diff("a", "c", 0))
        assert idl.assert_lit(10, [_diff("a", "c", 0)]) is None
        idl.assert_lit(1, [_diff("a", "b", -1)])
        idl.assert_lit(2, [_diff("b", "c", -1)])
        assert 10 not in idl.take_propagations()

    def test_retraction_prunes_pending_and_reported(self):
        idl = self._chain_solver()
        idl.assert_lit(1, [_diff("a", "b", -1)])
        idl.assert_lit(2, [_diff("b", "c", -1)])
        idl.retract_to(1)  # entailment basis gone before it was drained
        assert idl.take_propagations() == []
        # Reported propagations above the surviving prefix die too.
        idl.assert_lit(3, [_diff("b", "c", -1)])
        props = idl.take_propagations()
        assert props
        idl.retract_to(1)
        for lit in props:
            with pytest.raises(SolverError):
                idl.explain_entailed(lit)

    def test_conflicting_assert_leaves_feasible_potentials(self):
        """A vetoed assert must restore the potential function — lazy
        explanations (Dijkstra over reduced costs) depend on it."""
        idl = self._chain_solver()
        idl.assert_lit(1, [_diff("a", "b", -2)])
        idl.assert_lit(2, [_diff("b", "c", -2)])
        props = idl.take_propagations()
        assert 10 in props
        conflict = idl.assert_lit(3, [_diff("c", "b", -1)])  # cycle with 2
        assert conflict is not None
        # Explanation of the earlier propagation still materialises.
        explanation = idl.explain_entailed(10)
        assert explanation == [1, 2]
        pot = idl._pot
        for edge in idl._edges[: idl._frames[-1].edges_before]:
            assert pot[edge.src] + edge.weight >= pot[edge.dst]

    def test_non_relaxing_edges_run_no_pass(self):
        """Propagation is sound but incomplete, and pinned as such: the
        pass runs only when an assertion tightens the potentials.  Here
        both edges are satisfied by the all-zero potentials, so z - x <= 5
        becomes entailed (z - y <= 0, y - x <= 5) but is never reported.
        Making the pass complete would move the SAT counters; it is a
        deliberate change, not a side effect of a perf refactor."""
        idl = IncrementalDifferenceLogic()
        idl.register_atom(10, _diff("z", "x", 5))
        assert idl.assert_lit(1, [_diff("z", "y", 0)]) is None
        assert idl.assert_lit(2, [_diff("y", "x", 5)]) is None
        assert idl.take_propagations() == []
        _assert_entailed([_diff("z", "y", 0), _diff("y", "x", 5)], _diff("z", "x", 5))

    def test_phase_edge_shapes(self):
        def shapes(var, constraint):
            edges = IncrementalDifferenceLogic().register_atom(var, constraint)
            return [(e.src, e.dst, e.weight, e.tag) for e in edges]

        # x - y <= 3 / its negation y - x <= -4: the same edge reversed.
        assert shapes(4, _diff("x", "y", 3)) == [
            ("y", "x", 3, 4),
            ("x", "y", -4, -4),
        ]
        upper = LinearLe(LinearExpr.from_dict({"x": 1}), 7)
        assert shapes(5, upper) == [("$zero", "x", 7, 5), ("x", "$zero", -8, -5)]

    def test_register_atom_rejects_edgeless_atoms(self):
        idl = IncrementalDifferenceLogic()
        constant = LinearLe(LinearExpr.from_dict({}), 1)
        assert idl.register_atom(5, constant) is None
        non_diff = LinearLe(LinearExpr.from_dict({"x": 2, "y": -1}), 0)
        assert idl.register_atom(7, non_diff) is None
        assert idl.num_registered_atoms == 0
        assert idl.register_atom(6, _diff("x", "y", 0)) is not None
        assert idl.num_registered_atoms == 1


class TestRandomizedStreams:
    def test_every_propagation_explanation_is_entailed(self):
        """Fuzz: random difference streams with random retractions; every
        emitted literal's explanation must entail its phase constraint and
        reference only literals asserted before the emission."""
        names = list("abcdef")
        for seed in range(40):
            rng = random.Random(31_000 + seed)
            idl = IncrementalDifferenceLogic()
            atoms = {}
            for var in range(100, 112):
                x, y = rng.sample(names, 2)
                bound = rng.randint(-3, 3)
                positive = _diff(x, y, bound)
                if idl.register_atom(var, positive):
                    atoms[var] = positive
            trail = []  # (lit, constraint)
            next_lit = 1
            for _ in range(30):
                if trail and rng.random() < 0.25:
                    keep = rng.randint(0, len(trail))
                    idl.retract_to(keep)
                    del trail[keep:]
                    continue
                x, y = rng.sample(names, 2)
                constraint = _diff(x, y, rng.randint(-2, 4))
                lit = next_lit
                next_lit += 1
                conflict = idl.assert_lit(lit, [constraint])
                trail.append((lit, constraint))
                if conflict is not None:
                    idl.retract_to(len(trail) - 1)
                    trail.pop()
                    continue
                by_lit = dict(trail)
                for plit in idl.take_propagations():
                    constraint_of = atoms[abs(plit)]
                    if plit < 0:
                        constraint_of = constraint_of.negated()
                    explanation = idl.explain_entailed(plit)
                    assert set(explanation) <= set(by_lit), (seed, plit)
                    _assert_entailed(
                        [by_lit[e] for e in explanation], constraint_of
                    )


class TestEngineDifferential:
    @pytest.mark.parametrize("chunk", range(5))
    def test_propagation_on_off_verdicts_agree(self, chunk):
        """Propagation is a pure optimisation: verdicts (and model
        validity) are identical with the lane on and off."""
        per_chunk = 30
        for index in range(per_chunk):
            seed = chunk * per_chunk + index
            rng = random.Random(1_000 + seed)  # shared corpus seeds
            assertions, has_apps = _random_assertions(rng)

            verdict_on, on = _solve(assertions, idl_propagation=True)
            verdict_off, off = _solve(assertions, idl_propagation=False)
            assert verdict_on == verdict_off, f"seed {seed}"
            assert verdict_on is not CheckResult.UNKNOWN
            assert off.engine.stats.theory_propagations_idl == 0
            if verdict_on is CheckResult.SAT and not has_apps:
                model = on.model()
                for assertion in assertions:
                    assert model.satisfies(assertion), f"seed {seed}"

    def test_ordering_conflicts_become_propagations(self):
        """The ROADMAP claim in miniature: on an ordering workload the
        propagation lane fires and strictly cuts theory conflicts."""
        clocks = [IntVar(f"t{i}") for i in range(5)]
        terms = []
        for i in range(5):
            for j in range(i + 1, 5):
                terms.append(Or(Lt(clocks[i], clocks[j]), Lt(clocks[j], clocks[i])))
        for clock in clocks:
            terms.append(Le(IntVal(0), clock))
            terms.append(Le(clock, IntVal(3)))

        verdict_on, on = _solve(terms, idl_propagation=True)
        verdict_off, off = _solve(terms, idl_propagation=False)
        assert verdict_on is CheckResult.UNSAT
        assert verdict_off is CheckResult.UNSAT
        on_stats, off_stats = on.engine.stats, off.engine.stats
        assert on_stats.theory_propagations_idl > 0
        assert on_stats.theory_conflicts < off_stats.theory_conflicts
        # The aggregate counter covers both lanes consistently.
        assert on_stats.theory_propagations >= 0
        assert "theory_propagations_idl" in on.statistics()
