"""Differential harness: flat-memory core vs the retained legacy core.

The arena rewrite of :class:`repro.smt.sat.SatSolver` promises *bit-identical
search behaviour* — not just equisatisfiability: the same decisions, the
same conflicts, the same learned clauses, the same models.  These tests
pin that promise three ways:

* **three-way random-CNF differential** — the native-kernel core, the
  pure-Python flat core (``use_kernel=False``) and the legacy
  clause-object core produce identical verdicts, models and search
  counters under maximally aggressive reduction (``reduce_base=1``);
  kernel and Python flat cores additionally keep *identical watch
  tables*, entry for entry;
* **incremental streams** — assumption batches and clauses added between
  ``solve`` calls agree across the cores after arbitrarily many
  reductions and compactions;
* **arena invariants** — after any reduction, reason-locked crefs still
  dereference to live records, no watch entry dangles, and every blocker
  is a literal of its clause;
* **DPLL(T) corpus** — the mixed-theory corpus shared with the DPLL(T)
  oracle suite yields identical verdicts, models and conflict counts when
  the engine's SAT core is swapped for the legacy one.
"""

import random

import pytest

from test_dpllt_oracle import _random_assertions, _solve

import repro.smt.dpllt as dpllt
from repro.smt.dpllt import CheckResult
from repro.smt.sat import SatResult, SatSolver
from repro.smt.satlegacy import LegacySatSolver

#: Counters that must agree across cores.  (arena_bytes / compactions are
#: flat-core-only by construction and excluded.)
_SHARED_COUNTERS = (
    "decisions",
    "propagations",
    "conflicts",
    "learned_clauses",
    "restarts",
    "max_decision_level",
    "reduce_db_rounds",
    "clauses_deleted",
    "max_live_learned",
)


def _random_clauses(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 4)
        clauses.append(
            [rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(width)]
        )
    return clauses


def _cores(**kwargs):
    """(name, solver) per core; the kernel entry is present when it built."""
    cores = [
        ("legacy", LegacySatSolver(**kwargs)),
        ("flat-py", SatSolver(use_kernel=False, **kwargs)),
    ]
    flat = SatSolver(**kwargs)
    if flat.kernel_active:
        cores.append(("flat-c", flat))
    return cores


def _observables(solver):
    stats = solver.stats
    return {name: getattr(stats, name) for name in _SHARED_COUNTERS}


def _watch_table(solver):
    return {
        lit: solver.watch_entries(lit)
        for var in range(1, solver.num_vars + 1)
        for lit in (var, -var)
    }


def _check_arena_invariants(solver):
    live = set(solver.problem_refs()) | set(solver.learned_refs())
    # Reason-locked crefs survive compaction and stay dereferenceable.
    for lit in solver._trail:
        ref = solver.reason_ref(abs(lit))
        if ref > 0:
            assert solver.clause_info(ref)["size"] >= 1
            assert abs(lit) in {abs(l) for l in solver.clause_lits(ref)}
    # No dangling watch refs; blockers are in-clause.
    for var in range(1, solver.num_vars + 1):
        for lit in (var, -var):
            for ref, blocker in solver.watch_entries(lit):
                cref = -ref if ref < 0 else ref
                assert cref in live, f"dangling watch ref {ref} on {lit}"
                assert blocker in solver.clause_lits(cref)
    assert solver.arena_live_words() <= solver.arena_words


class TestRandomCnfThreeWay:
    @pytest.mark.parametrize("chunk", range(4))
    def test_verdicts_models_and_counters_identical(self, chunk):
        for index in range(25):
            seed = chunk * 25 + index
            rng = random.Random(5_000 + seed)
            num_vars = rng.randint(6, 16)
            clauses = _random_clauses(rng, num_vars, rng.randint(15, 70))
            results = []
            for name, solver in _cores(reduce_db=True, reduce_base=1):
                solver.ensure_vars(num_vars)
                solver.add_clauses(clauses)
                verdict = solver.solve()
                model = solver.model() if verdict is SatResult.SAT else None
                results.append((name, verdict, model, _observables(solver)))
            baseline = results[0]
            for other in results[1:]:
                assert other[1:] == baseline[1:], (
                    f"seed {seed}: {other[0]} diverged from {baseline[0]}"
                )

    def test_kernel_and_python_watch_tables_identical(self):
        flat = SatSolver(reduce_db=True, reduce_base=1)
        if not flat.kernel_active:
            pytest.skip("native kernel unavailable")
        pure = SatSolver(use_kernel=False, reduce_db=True, reduce_base=1)
        rng = random.Random(97)
        num_vars = 14
        clauses = _random_clauses(rng, num_vars, 60)
        for solver in (flat, pure):
            solver.ensure_vars(num_vars)
            solver.add_clauses(clauses)
            solver.solve()
        assert _watch_table(flat) == _watch_table(pure)


class TestIncrementalStreams:
    def test_assumption_streams_agree(self):
        for seed in range(10):
            rng = random.Random(9_000 + seed)
            num_vars = rng.randint(8, 14)
            cores = _cores(reduce_db=True, reduce_base=1)
            for _name, solver in cores:
                solver.ensure_vars(num_vars)
            # Interleave clause batches with assumption solves.
            for _round in range(4):
                batch = _random_clauses(rng, num_vars, rng.randint(5, 15))
                assumptions = [
                    rng.randint(1, num_vars) * rng.choice((1, -1))
                    for _ in range(rng.randint(0, 3))
                ]
                outcomes = []
                for name, solver in cores:
                    solver.add_clauses(batch)
                    verdict = solver.solve(assumptions=assumptions)
                    model = solver.model() if verdict is SatResult.SAT else None
                    outcomes.append((name, verdict, model, _observables(solver)))
                baseline = outcomes[0]
                for other in outcomes[1:]:
                    assert other[1:] == baseline[1:], (
                        f"seed {seed}: {other[0]} diverged from {baseline[0]}"
                    )

    def test_arena_invariants_after_reduce_heavy_runs(self):
        for seed in range(6):
            rng = random.Random(11_000 + seed)
            num_vars = rng.randint(10, 16)
            solver = SatSolver(reduce_db=True, reduce_base=1)
            solver.ensure_vars(num_vars)
            for _round in range(3):
                solver.add_clauses(
                    _random_clauses(rng, num_vars, rng.randint(10, 30))
                )
                assumptions = [
                    rng.randint(1, num_vars) * rng.choice((1, -1))
                    for _ in range(rng.randint(0, 2))
                ]
                verdict = solver.solve(assumptions=assumptions)
                _check_arena_invariants(solver)
                if verdict is SatResult.SAT:
                    solver.reduce_db()
                    _check_arena_invariants(solver)


class TestDpllTCorpus:
    """Swap the engine's SAT core for the legacy one and compare everything."""

    @pytest.mark.parametrize("chunk", range(2))
    def test_corpus_exact_agreement(self, chunk, monkeypatch):
        for index in range(15):
            seed = chunk * 15 + index
            rng = random.Random(1_000 + seed)  # the oracle suite's corpus seeds
            assertions, has_apps = _random_assertions(rng)

            flat_verdict, flat = _solve(assertions, reduce_base=1)
            flat_model = flat.model() if flat_verdict is CheckResult.SAT else None
            flat_stats = flat.engine.stats

            monkeypatch.setattr(dpllt, "SatSolver", LegacySatSolver)
            legacy_verdict, legacy = _solve(assertions, reduce_base=1)
            legacy_model = (
                legacy.model() if legacy_verdict is CheckResult.SAT else None
            )
            legacy_stats = legacy.engine.stats
            monkeypatch.undo()

            assert flat_verdict == legacy_verdict, f"seed {seed}"
            if flat_model is not None and not has_apps:
                assert legacy_model is not None
                for assertion in assertions:
                    assert flat_model.satisfies(assertion), f"seed {seed}"
            assert (
                flat_stats.sat_conflicts == legacy_stats.sat_conflicts
            ), f"seed {seed}"
            assert (
                flat_stats.sat_decisions == legacy_stats.sat_decisions
            ), f"seed {seed}"
            assert (
                flat_stats.theory_conflicts == legacy_stats.theory_conflicts
            ), f"seed {seed}"
