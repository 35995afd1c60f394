"""SAT-core oracles: the native kernel against the pure-Python loop, and
DIMACS known-answer fixtures with golden search counters.

:class:`repro.smt.sat.SatSolver` runs its propagation loop either in the
compiled kernel (:mod:`repro.smt.satkernel`) or in pure Python, and the two
promise *bit-identical search behaviour*: the same decisions, conflicts,
learned clauses and models.  These tests pin that promise, and the search
itself, four ways:

* **random-CNF differential** — the kernel core and the pure-Python core
  (``use_kernel=False``) produce identical verdicts, models and search
  counters under maximally aggressive reduction (``reduce_base=1``), and
  keep *identical watch tables*, entry for entry;
* **incremental streams** — assumption batches and clauses added between
  ``solve`` calls agree across the cores after arbitrarily many
  reductions and compactions;
* **arena invariants** — after any reduction, reason-locked crefs still
  dereference to live records, no watch entry dangles, and every blocker
  is a literal of its clause;
* **known answers** — pigeonhole (UNSAT), graph-colouring (SAT) and
  random 3-SAT fixtures under ``tests/smt/data/``, the last settled by
  exhaustive truth tables, solved by every core: every SAT model satisfies
  every clause, and decisions / conflicts / learned clauses / reduceDB
  rounds match golden values, so the search cannot drift silently.

The pure-Python loop is the reference for the C kernel; without a built
kernel the differentials compare nothing, which is why CI fails when the
kernel does not load.
"""

import os
import random

import pytest

from repro.smt.dimacs import load_dimacs
from repro.smt.sat import SatResult, SatSolver

DATA = os.path.join(os.path.dirname(__file__), "data")

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
    cores = [("flat-py", SatSolver(use_kernel=False, **kwargs))]
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


class TestRandomCnfKernelVsPython:
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


#: Known answer and golden search counters of each fixture at
#: ``reduce_base=1``: (answer, decisions, conflicts, learned clauses,
#: reduceDB rounds).  A deliberate heuristic change updates these numbers;
#: any other change to them is search drift.
_GOLDEN = {
    "php_3_2.cnf": ("unsat", 1, 2, 1, 0),
    "php_6_5.cnf": ("unsat", 187, 146, 145, 8),
    "simple_sat.cnf": ("sat", 1, 0, 0, 0),
    "color_120_3.cnf": ("sat", 139, 89, 89, 7),
    "uf3_12_1.cnf": ("sat", 4, 1, 1, 0),
    "uf3_13_2.cnf": ("unsat", 12, 9, 8, 0),
    "uf3_14_3.cnf": ("unsat", 14, 12, 11, 0),
    "uf3_14_4.cnf": ("sat", 8, 0, 0, 0),
    "uf3_14_5.cnf": ("unsat", 8, 8, 7, 0),
    "uf3_14_6.cnf": ("sat", 5, 0, 0, 0),
}

#: Largest instance whose answer the tests settle by a truth table.
_TRUTH_TABLE_VARS = 14


def _truth_table_satisfiable(problem):
    """Exhaustive check, one bit per assignment: bit ``a`` of a variable's
    column is its value under assignment ``a``."""
    rows = 1 << problem.num_vars
    everything = (1 << rows) - 1
    columns = []
    for index in range(problem.num_vars):
        block = 1 << index
        ones = ((1 << block) - 1) << block  # a run of 0s, then of 1s
        column = 0
        for start in range(0, rows, 2 * block):
            column |= ones << start
        columns.append(column)
    satisfying = everything
    for clause in problem.clauses:
        covered = 0
        for lit in clause:
            column = columns[abs(lit) - 1]
            covered |= column if lit > 0 else everything ^ column
        satisfying &= covered
    return satisfying != 0


class TestDimacsFixtures:
    def test_truth_table_oracle(self):
        small = [name for name in _GOLDEN if name.startswith("uf3_")]
        answers = set()
        for name in small:
            problem = load_dimacs(os.path.join(DATA, name))
            assert problem.num_vars <= _TRUTH_TABLE_VARS
            satisfiable = _truth_table_satisfiable(problem)
            assert ("sat" if satisfiable else "unsat") == _GOLDEN[name][0], name
            answers.add(satisfiable)
        assert answers == {True, False}  # both answers are exercised

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_known_answer_and_golden_counters(self, name):
        problem = load_dimacs(os.path.join(DATA, name))
        for core, solver in _cores(reduce_db=True, reduce_base=1):
            solver.ensure_vars(problem.num_vars)
            solver.add_clauses(problem.clauses)
            verdict = solver.solve()
            if verdict is SatResult.SAT:
                model = solver.model()
                for clause in problem.clauses:
                    assert any(model[abs(lit)] == (lit > 0) for lit in clause), (
                        f"{core}: model falsifies {clause}"
                    )
            stats = solver.stats
            observed = (
                verdict.value,
                stats.decisions,
                stats.conflicts,
                stats.learned_clauses,
                stats.reduce_db_rounds,
            )
            assert observed == _GOLDEN[name], core
