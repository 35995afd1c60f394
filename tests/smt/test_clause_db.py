"""Tests for learned-clause database reduction (``SatSolver.reduce_db``).

Three layers of guarantees:

* **structural invariants** — reason-locked, binary, glue (LBD <= 3) and
  pinned theory-lemma clauses survive a reduction; victims are really
  unlinked from the watch lists; the surviving clauses keep the two-watch
  attachment invariant;
* **semantic equivalence** — verdicts and models are identical under the
  most aggressive reduction possible (``reduce_base=1``) on random CNFs
  (against a truth table) and on the 300-formula mixed-theory corpus
  shared with the DPLL(T) oracle suite;
* **incremental soundness** — assumption and push/pop ``check()`` streams
  on one engine agree with an unreduced engine after arbitrarily many
  reductions.
"""

import itertools
import random

import pytest

from test_dpllt_oracle import _random_assertions, _solve

from repro.smt.dpllt import CheckResult, IncrementalDpllTEngine
from repro.smt.sat import SatResult, SatSolver, TheoryListener


def _random_clauses(rng, num_vars, num_clauses, width=None):
    clauses = []
    for _ in range(num_clauses):
        clause_width = width if width is not None else rng.randint(1, 4)
        clauses.append(
            [
                rng.randint(1, num_vars) * rng.choice((1, -1))
                for _ in range(clause_width)
            ]
        )
    return clauses


def _brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses
        ):
            return True
    return False


def _watch_occurrences(solver):
    """Watch-list occurrence count per cref (binary inline entries included)."""
    counts = {}
    for var in range(1, solver.num_vars + 1):
        for lit in (var, -var):
            for ref, _blocker in solver.watch_entries(lit):
                cref = -ref if ref < 0 else ref
                counts[cref] = counts.get(cref, 0) + 1
    return counts


def _lits_multiset(solver, refs):
    """Clause literal tuples (order preserved by compaction) as a multiset."""
    counts = {}
    for ref in refs:
        key = tuple(solver.clause_lits(ref))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _locked_refs(solver):
    """Crefs pinned by being the reason of a trail literal."""
    return {
        solver.reason_ref(abs(lit))
        for lit in solver._trail
        if solver.reason_ref(abs(lit)) > 0
    }


class TestReductionInvariants:
    def _solved_solver(self, reduce_db=False, **kwargs):
        """A solver mid-lifetime: solved once (SAT, so the trail is full and
        reason-locked learned clauses exist), rich learned population."""
        solver = SatSolver(reduce_db=reduce_db, **kwargs)
        rng = random.Random(6)
        solver.ensure_vars(60)
        solver.add_clauses(_random_clauses(rng, 60, 252, width=3))
        assert solver.solve() is SatResult.SAT
        return solver

    def test_binary_and_glue_clauses_survive(self):
        solver = self._solved_solver()
        learned = solver.learned_refs()
        assert learned, "workload produced no learned clauses"
        protected = [
            ref
            for ref in learned
            if solver.clause_info(ref)["size"] <= 2
            or solver.clause_info(ref)["lbd"] <= 3
        ]
        protected_lits = _lits_multiset(solver, protected)
        solver.reduce_db()
        survivors = _lits_multiset(solver, solver.learned_refs())
        for key, count in protected_lits.items():
            assert survivors.get(key, 0) >= count, key

    def test_reason_locked_clauses_survive(self):
        solver = self._solved_solver()
        learned_locked = _locked_refs(solver) & set(solver.learned_refs())
        locked_lits = _lits_multiset(solver, learned_locked)
        solver.reduce_db()
        survivors = _lits_multiset(solver, solver.learned_refs())
        for key, count in locked_lits.items():
            assert survivors.get(key, 0) >= count, key
        # Compaction must have remapped the reason crefs along with the
        # records: every locked reason still dereferences to a live clause.
        for ref in _locked_refs(solver):
            info = solver.clause_info(ref)
            assert info["size"] >= 2

    def test_victims_unlinked_and_watch_invariant_kept(self):
        solver = self._solved_solver()
        before = len(solver.learned_refs())
        deleted = solver.reduce_db()
        after = len(solver.learned_refs())
        assert deleted == before - after
        counts = _watch_occurrences(solver)
        live = set(solver.problem_refs()) | set(solver.learned_refs())
        # No dangling refs: everything watched is a live clause.
        assert set(counts) <= live, "deleted clause still watched"
        # Every live clause (problem or learned) is watched exactly twice.
        for ref in sorted(live):
            assert counts.get(ref, 0) == 2, solver.clause_lits(ref)
        # Blockers name literals of their own clause (the fast path relies
        # on this: a true blocker proves the clause satisfied).
        for var in range(1, solver.num_vars + 1):
            for lit in (var, -var):
                for ref, blocker in solver.watch_entries(lit):
                    cref = -ref if ref < 0 else ref
                    assert blocker in solver.clause_lits(cref)

    def test_reduction_halves_the_deletable_population(self):
        solver = self._solved_solver()
        locked = _locked_refs(solver)
        deletable = [
            ref
            for ref in solver.learned_refs()
            if solver.clause_info(ref)["size"] > 2
            and solver.clause_info(ref)["lbd"] > 3
            and not solver.clause_info(ref)["pinned"]
            and ref not in locked
        ]
        deleted = solver.reduce_db()
        assert deleted == len(deletable) // 2
        assert solver.stats.clauses_deleted == deleted
        assert solver.stats.reduce_db_rounds == (1 if deleted else 0)
        if deleted:
            assert solver.stats.compactions >= 1
            assert solver.arena_words >= solver.arena_live_words()

    def test_solver_still_correct_after_manual_reduction(self):
        rng = random.Random(13)
        for seed in range(30):
            rng = random.Random(1000 + seed)
            num_vars = rng.randint(4, 9)
            clauses = _random_clauses(rng, num_vars, rng.randint(10, 40))
            solver = SatSolver(reduce_db=True, reduce_base=1)
            solver.ensure_vars(num_vars)
            solver.add_clauses(clauses)
            result = solver.solve()
            expected = _brute_force_sat(num_vars, clauses)
            assert (result is SatResult.SAT) == expected, f"seed {seed}"
            if result is SatResult.SAT:
                model = solver.model()
                for clause in clauses:
                    assert any(model.get(abs(l), False) == (l > 0) for l in clause)

    def test_pinned_theory_lemmas_survive_aggressive_reduction(self):
        """With pin_theory_lemmas=True, clauses learned from theory
        conflicts stay through reductions that delete everything else."""

        class Exclusion(TheoryListener):
            """Vetoes any assignment containing two specific true literals."""

            def __init__(self, pairs):
                self.pairs = pairs
                self.trail = []

            def on_assert(self, lit):
                self.trail.append(lit)
                present = set(self.trail)
                for a, b in self.pairs:
                    if lit in (a, b) and a in present and b in present:
                        first, second = (a, b) if self.trail.index(a) < self.trail.index(b) else (b, a)
                        return [first, second]
                return None

            def on_backjump(self, kept):
                del self.trail[kept:]

        solver = SatSolver(reduce_db=True, reduce_base=1, pin_theory_lemmas=True)
        vars_ = [solver.new_var() for _ in range(12)]
        pairs = [(vars_[i], vars_[i + 1]) for i in range(0, 10, 2)]
        solver.set_theory(Exclusion(pairs))
        for a, b in pairs:
            solver.add_clause([a, b])  # force one of each excluded pair true
        rng = random.Random(3)
        solver.add_clauses(_random_clauses(rng, 12, 30))
        solver.solve()
        if solver.learned_refs():
            pinned = _lits_multiset(
                solver,
                [
                    ref
                    for ref in solver.learned_refs()
                    if solver.clause_info(ref)["pinned"]
                ],
            )
            solver.reduce_db()
            survivors = _lits_multiset(solver, solver.learned_refs())
            for key, count in pinned.items():
                assert survivors.get(key, 0) >= count, key


class TestReductionDifferential:
    """Aggressive reduction must be invisible in verdicts and models."""

    @pytest.mark.parametrize("chunk", range(10))
    def test_corpus_verdicts_and_models_match_unreduced(self, chunk):
        per_chunk = 30
        for index in range(per_chunk):
            seed = chunk * per_chunk + index
            rng = random.Random(1_000 + seed)  # the oracle suite's corpus seeds
            assertions, has_apps = _random_assertions(rng)

            verdict_reduced, reduced = _solve(assertions, reduce_base=1)
            verdict_baseline, _ = _solve(assertions, reduce_db=False)
            assert verdict_reduced == verdict_baseline, f"seed {seed}"
            assert verdict_reduced is not CheckResult.UNKNOWN
            if verdict_reduced is CheckResult.SAT and not has_apps:
                model = reduced.model()
                for assertion in assertions:
                    assert model.satisfies(assertion), (
                        f"seed {seed}: reduced-engine model violates {assertion}"
                    )

    def test_incremental_streams_stay_sound_after_reductions(self):
        """Assumption and push/pop streams on one engine agree with an
        unreduced engine — learned-state garbage collection between checks
        must never change an answer."""
        for seed in range(12):
            rng = random.Random(21_000 + seed)
            base, _ = _random_assertions(rng)
            scoped, _ = _random_assertions(rng)
            probes, _ = _random_assertions(random.Random(22_000 + seed))

            reduced = IncrementalDpllTEngine(reduce_base=1)
            baseline = IncrementalDpllTEngine(reduce_db=False)
            for engine in (reduced, baseline):
                for assertion in base:
                    engine.add(assertion)
            assert reduced.check() == baseline.check(), f"seed {seed} (base)"
            for probe in probes[:2]:
                assert reduced.check(probe) == baseline.check(probe), (
                    f"seed {seed} (assumption)"
                )
            for engine in (reduced, baseline):
                engine.push()
                for assertion in scoped:
                    engine.add(assertion)
            assert reduced.check() == baseline.check(), f"seed {seed} (scoped)"
            for engine in (reduced, baseline):
                engine.pop()
            assert reduced.check() == baseline.check(), f"seed {seed} (popped)"

    def test_reduction_rounds_actually_happen_on_long_streams(self):
        """The aggressive engine really reduces (the differential above
        would be vacuous otherwise) and keeps fewer clauses live.  The
        stream is difference-logic only: scoped delivery-window questions
        whose UNSAT proofs are conflict-rich but bounded."""
        from repro.smt.terms import IntVal, IntVar, Le, Lt, Or

        clocks = [IntVar(f"c{i}") for i in range(5)]
        engine = IncrementalDpllTEngine(reduce_base=1)
        baseline = IncrementalDpllTEngine(reduce_db=False)
        for target in (engine, baseline):
            for i in range(5):
                for j in range(i + 1, 5):
                    target.add(Or(Lt(clocks[i], clocks[j]), Lt(clocks[j], clocks[i])))
            for clock in clocks:
                target.add(Le(IntVal(0), clock))
        rounds = 0
        for offset in range(12):
            for target in (engine, baseline):
                target.push()
                for clock in clocks:
                    target.add(Le(IntVal(offset), clock))
                    target.add(Le(clock, IntVal(offset + 3)))
                assert target.check() is CheckResult.UNSAT
                target.pop()
            rounds += engine.stats.reduce_db_rounds
        assert rounds > 0
        assert (
            engine.stats.max_live_learned < baseline.stats.max_live_learned
        )
