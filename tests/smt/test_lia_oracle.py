"""The LIA solver against exhaustive integer enumeration.

Seeded random conjunctions over at most four variables, with coefficients
in [-3, 3] and every variable boxed to [-4, 4] by asserted bounds, are
small enough to decide by trying every integer point.  Against that oracle
this suite checks that

* verdicts agree (solving as the trail grows, and after a batch load of
  bounds with one final check);
* every model satisfies every asserted constraint;
* every conflict is a subset of the trail's literals and is infeasible by
  enumeration on its own (within the box, the domain of every problem);
* answers stay right across interleaved ``assert_lit`` / ``retract_to`` /
  ``explain`` calls, and every explanation entails its literal.

The box literals sit at the bottom of every trail and are never
retracted, so enumerating over the box is exhaustive for every question
asked here.
"""

import itertools
import random

import pytest

from repro.smt.backend import DpllTBackend
from repro.smt.dpllt import CheckResult
from repro.smt.linear import LinearExpr, LinearLe
from repro.smt.terms import Add, Eq, IntVal, IntVar, Mul
from repro.smt.theory.lia import IncrementalLinearInt
from repro.utils.errors import SolverError

BOX = 4
COEFFS = [-3, -2, -1, 1, 2, 3]


class _Problem:
    """Variables, their box literals and a pool of random constraints."""

    def __init__(self, rng: random.Random, pool_size: int) -> None:
        self.names = [f"x{i}" for i in range(rng.randint(1, 4))]
        self.points = list(itertools.product(range(-BOX, BOX + 1), repeat=len(self.names)))
        self.constraints = {}
        lit = 1
        for name in self.names:
            self.constraints[lit] = LinearLe(LinearExpr.from_dict({name: 1}), BOX)
            self.constraints[lit + 1] = LinearLe(LinearExpr.from_dict({name: -1}), BOX)
            lit += 2
        self.box = list(self.constraints)
        self.pool = []
        for index in range(pool_size):
            if self.pool and rng.random() < 0.25:
                # A weaker copy of an earlier constraint: something to explain.
                earlier = self.constraints[rng.choice(self.pool)]
                constraint = LinearLe(earlier.expr, earlier.bound + rng.randint(0, 3))
            else:
                chosen = rng.sample(self.names, rng.randint(1, len(self.names)))
                expr = LinearExpr.from_dict({n: rng.choice(COEFFS) for n in chosen})
                constraint = LinearLe(expr, rng.randint(-6, 6))
            self.constraints[100 + index] = constraint
            self.pool.append(100 + index)

    def feasible(self, lits, extra=()) -> bool:
        constraints = [self.constraints[lit] for lit in lits] + list(extra)
        for point in self.points:
            assignment = dict(zip(self.names, point))
            if all(c.holds(assignment) for c in constraints):
                return True
        return False


def _check_answer(problem: _Problem, lia: IncrementalLinearInt, trail, label: str):
    """final_check on ``trail`` (a literal list) agrees with enumeration."""
    result = lia.final_check()
    expected = problem.feasible(trail)
    assert result.satisfiable == expected, f"{label}: trail {trail}"
    if result.satisfiable:
        model = {name: result.model.get(name, 0) for name in problem.names}
        for lit in trail:
            assert problem.constraints[lit].holds(model), f"{label}: model {model} breaks {lit}"
    else:
        _check_conflict(problem, result.conflict, trail, label)


def _check_conflict(problem: _Problem, conflict, trail, label: str):
    assert conflict, f"{label}: empty conflict"
    assert set(conflict) <= set(trail), f"{label}: conflict {conflict} not in trail {trail}"
    assert not problem.feasible(conflict), f"{label}: conflict {conflict} is feasible"


@pytest.mark.parametrize("chunk", range(4))
def test_random_conjunctions_agree_with_enumeration(chunk):
    for index in range(75):
        seed = chunk * 75 + index
        problem = _Problem(random.Random(50_000 + seed), pool_size=random.Random(seed).randint(1, 6))
        lia = IncrementalLinearInt()
        trail = []
        conflict = None
        for lit in problem.box + problem.pool:
            trail.append(lit)
            conflict = lia.assert_lit(lit, [problem.constraints[lit]])
            if conflict is not None:
                break
        if conflict is not None:
            assert not problem.feasible(trail), f"seed {seed}: spurious conflict"
            _check_conflict(problem, conflict, trail, f"seed {seed}")
        else:
            _check_answer(problem, lia, trail, f"seed {seed}")

        # Batch load: every constraint as a bound first (tag = position),
        # then one feasibility check at the final check.
        batch = IncrementalLinearInt()
        order = problem.box + problem.pool
        for index, lit in enumerate(order):
            conflict = batch.assert_lit(index, [problem.constraints[lit]], check=False)
            if conflict is not None:
                break
        else:
            conflict = batch.final_check().conflict
        assert (conflict is None) == problem.feasible(order), f"seed {seed} (batch)"
        if conflict is not None:
            assert not problem.feasible([order[i] for i in conflict])


@pytest.mark.parametrize("chunk", range(4))
def test_interleaved_assert_retract_explain(chunk):
    for index in range(25):
        seed = chunk * 25 + index
        rng = random.Random(60_000 + seed)
        problem = _Problem(rng, pool_size=8)
        lia = IncrementalLinearInt()
        for lit in problem.box:
            assert lia.assert_lit(lit, [problem.constraints[lit]]) is None
        trail = list(problem.box)
        for step in range(30):
            label = f"seed {seed} step {step}"
            action = rng.random()
            if action < 0.5:
                lit = rng.choice([l for l in problem.pool if l not in trail] or [None])
                if lit is None:
                    continue
                trail.append(lit)
                conflict = lia.assert_lit(lit, [problem.constraints[lit]])
                if conflict is not None:
                    _check_conflict(problem, conflict, trail, label)
                    assert lit in conflict, label
                    lia.retract_to(len(trail) - 1)
                    trail.pop()
            elif action < 0.7 and len(trail) > len(problem.box):
                keep = rng.randint(len(problem.box), len(trail) - 1)
                lia.retract_to(keep)
                del trail[keep:]
            elif len(trail) > len(problem.box):
                lit = rng.choice(trail[len(problem.box):])
                try:
                    explanation = lia.explain(lit)
                except SolverError:
                    explanation = None
                if explanation is not None:
                    assert set(explanation) <= set(trail) - {lit}, label
                    negated = problem.constraints[lit].negated()
                    assert not problem.feasible(explanation, [negated]), (
                        f"{label}: {explanation} does not entail {lit}"
                    )
                assert lia.num_asserted == len(trail), label
            _check_answer(problem, lia, trail, label)


def test_branch_and_bound_cap_is_unknown_resource():
    """2x - 2y = 1 is rationally feasible and has no integer point; with no
    bounds, branch-and-bound runs into its node cap (not the recursion
    limit) and the backend answers UNKNOWN(resource)."""
    x, y = IntVar("x"), IntVar("y")
    backend = DpllTBackend()
    backend.add(Eq(Add(Mul(2, x), Mul(-2, y)), IntVal(1)))
    assert backend.check() is CheckResult.UNKNOWN
    assert backend.unknown_reason == "resource"
    # The next check starts clean: with x fixed, y = -1/2 branches
    # straight into two infeasible leaves.
    assert backend.check(Eq(x, IntVal(0))) is CheckResult.UNSAT
    assert backend.unknown_reason is None
