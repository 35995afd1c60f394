"""Oracle tests for the DPLL(T) engine that do not trust the engine.

Every answer of :class:`~repro.smt.backend.DpllTBackend` is checked
against something independent of it:

* **SAT models by evaluation** — on 300 seeded random formulas mixing EUF,
  IDL and general-LIA atoms under arbitrary Boolean structure (negations,
  implications, ite), every SAT model must satisfy every assertion.
* **UNSAT (and SAT) verdicts by truth table** — on tiny IDL+EUF formulas,
  every polarity assignment of the atoms that satisfies the Boolean
  skeleton is checked by the batch
  :class:`~repro.smt.theory.idl.DifferenceLogicSolver` (Bellman–Ford) and
  :class:`~repro.smt.theory.euf.CongruenceClosure`; the formula is
  satisfiable iff one such assignment is theory-consistent.
* **Incremental streams by a cold backend** — assumption checks and
  push/pop scopes must answer exactly what a fresh backend loaded with the
  same live assertions answers, so no learned state leaks across checks.
* **Programs by explicit exploration** — an ``arith_heavy`` corpus of
  random MCAPI programs goes through the full verification stack and must
  agree with the explicit-state and sleep-set explorers, as in
  ``tests/verification/test_differential.py``.

Each chunked corpus must contain both SAT and UNSAT answers, so agreement
cannot be reached by every answer going one way.
"""

import itertools
import random

import pytest

from repro.baselines.dpor import SleepSetExplorer
from repro.baselines.explicit import ExplicitStateExplorer
from repro.encoding.encoder import EncoderOptions
from repro.program import run_program
from repro.smt.backend import DpllTBackend
from repro.smt.dpllt import CheckResult
from repro.smt.linear import atom_to_constraints
from repro.smt.sorts import uninterpreted_sort
from repro.smt.terms import (
    Add,
    And,
    App,
    BoolVar,
    Eq,
    Function,
    Implies,
    IntVal,
    IntVar,
    Ite,
    Le,
    Lt,
    Mul,
    Not,
    Or,
    Term,
    Var,
)
from repro.smt.theory import CongruenceClosure, DifferenceLogicSolver
from repro.verification import Verdict, VerificationSession
from repro.workloads.generators import random_program

NUM_FORMULAS = 300


def _random_assertions(rng: random.Random):
    """A small random assertion set mixing EUF / IDL / LIA atoms.

    Returns ``(assertions, has_apps)`` — formulas containing non-nullary
    applications cannot be model-checked by evaluation.
    """
    int_vars = [IntVar(f"x{i}") for i in range(rng.randint(2, 4))]
    u = uninterpreted_sort("U")
    u_vars = [Var(f"u{i}", u) for i in range(rng.randint(2, 3))]
    f = Function("f", (u,), u)
    has_apps = False

    def int_atom() -> Term:
        shape = rng.choice(["diff", "diff", "bound", "lia", "eq"])
        a, b = rng.sample(int_vars, 2)
        c = IntVal(rng.randint(-4, 4))
        if shape == "diff":
            op = Lt if rng.random() < 0.5 else Le
            return op(a, Add(b, c))
        if shape == "bound":
            return Le(a, c)
        if shape == "lia":
            # Non-unit coefficient: forces the general LIA lane.
            return Le(Add(Mul(2, a), b), c)
        return Eq(a, Add(b, c))

    def euf_atom() -> Term:
        nonlocal has_apps
        lhs, rhs = rng.choice(u_vars), rng.choice(u_vars)
        if rng.random() < 0.4:
            lhs = App(f, lhs)
            has_apps = True
        if rng.random() < 0.25:
            rhs = App(f, rhs)
            has_apps = True
        return Eq(lhs, rhs)

    def atom() -> Term:
        return euf_atom() if rng.random() < 0.35 else int_atom()

    def formula(depth: int) -> Term:
        if depth <= 0:
            leaf = atom()
            return Not(leaf) if rng.random() < 0.4 else leaf
        shape = rng.choice(["and", "or", "not", "implies", "ite"])
        if shape == "and":
            return And([formula(depth - 1) for _ in range(rng.randint(2, 3))])
        if shape == "or":
            return Or([formula(depth - 1) for _ in range(rng.randint(2, 3))])
        if shape == "not":
            return Not(formula(depth - 1))
        if shape == "implies":
            return Implies(formula(depth - 1), formula(depth - 1))
        return Ite(formula(depth - 1), formula(depth - 1), formula(depth - 1))

    assertions = [formula(rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    return assertions, has_apps


NUM_CHUNKS = 10
#: Tiny IDL+EUF formulas per chunk, and their atom cap (2^cap rows).
TINY_PER_CHUNK = 20
TINY_MAX_ATOMS = 9
BOTH_VERDICTS = {CheckResult.SAT, CheckResult.UNSAT}


def _solve(assertions, **kwargs):
    """A fresh backend loaded with ``assertions``, and its verdict."""
    backend = DpllTBackend(**kwargs)
    backend.add_all(assertions)
    return backend.check(), backend


def _assert_model(backend, assertions, label):
    model = backend.model()
    for assertion in assertions:
        assert model.satisfies(assertion), f"{label}: {model} violates {assertion}"


# ---------------------------------------------------------------------------
# Truth-table oracle over tiny IDL + EUF formulas
# ---------------------------------------------------------------------------

_CONNECTIVES = ("and", "or", "not", "implies", "iff", "xor", "ite")


def _tiny_assertions(rng: random.Random):
    """4-6 small formulas over three clocks and three ``U`` constants, with
    at most :data:`TINY_MAX_ATOMS` distinct atoms (redrawn until so)."""
    xs = [IntVar(f"t{i}") for i in range(3)]
    u = uninterpreted_sort("U")
    us = [Var(f"w{i}", u) for i in range(3)]
    g = Function("g", (u,), u)

    def atom() -> Term:
        roll = rng.random()
        if roll < 0.5:
            a, b = rng.sample(xs, 2)
            op = Lt if rng.random() < 0.5 else Le
            return op(a, Add(b, IntVal(rng.randint(-2, 2))))
        if roll < 0.65:
            x, c = rng.choice(xs), IntVal(rng.randint(-1, 2))
            return Le(x, c) if rng.random() < 0.5 else Le(c, x)
        lhs, rhs = rng.sample(us, 2)
        if rng.random() < 0.4:
            lhs = App(g, lhs)
        return Eq(lhs, rhs)

    def formula(depth: int) -> Term:
        if depth <= 0:
            leaf = atom()
            return Not(leaf) if rng.random() < 0.4 else leaf
        shape = rng.choice(["or", "or", "not", "implies", "ite"])
        if shape == "or":
            return Or([formula(depth - 1) for _ in range(2)])
        if shape == "not":
            return Not(formula(depth - 1))
        if shape == "implies":
            return Implies(formula(depth - 1), formula(depth - 1))
        return Ite(formula(depth - 1), formula(depth - 1), formula(depth - 1))

    while True:
        assertions = [formula(rng.randint(0, 1)) for _ in range(rng.randint(4, 6))]
        if len(_atoms(assertions)) <= TINY_MAX_ATOMS:
            return assertions


def _atoms(assertions):
    """The theory atoms under the Boolean connectives, in discovery order."""
    found = {}

    def walk(term: Term) -> None:
        if term.kind == "boolconst":
            return
        if term.kind in _CONNECTIVES:
            for arg in term.args:
                walk(arg)
        else:
            found.setdefault(term, None)

    for assertion in assertions:
        walk(assertion)
    return list(found)


def _skeleton(term: Term, values) -> bool:
    """Evaluate ``term``'s Boolean structure with atoms fixed by ``values``."""
    kind = term.kind
    if kind == "boolconst":
        return term.value
    if kind not in _CONNECTIVES:
        return values[term]
    args = [_skeleton(arg, values) for arg in term.args]
    if kind == "and":
        return all(args)
    if kind == "or":
        return any(args)
    if kind == "not":
        return not args[0]
    if kind == "implies":
        return not args[0] or args[1]
    if kind == "iff":
        return args[0] == args[1]
    if kind == "xor":
        return args[0] != args[1]
    return args[1] if args[0] else args[2]


def _theory_consistent(values) -> bool:
    """Batch check of one polarity assignment.  Clocks and ``U`` constants
    share no variables, so the conjunction is consistent iff both halves
    are."""
    idl = DifferenceLogicSolver()
    euf = CongruenceClosure()
    for atom, value in values.items():
        if atom.args[0].sort.is_int:
            idl.assert_all(atom_to_constraints(atom, value))
        elif value:
            euf.assert_equal(*atom.args)
        else:
            euf.assert_distinct(*atom.args)
    return idl.check().satisfiable and euf.check().satisfiable


def _truth_table_sat(assertions) -> bool:
    atoms = _atoms(assertions)
    for row in itertools.product((False, True), repeat=len(atoms)):
        values = dict(zip(atoms, row))
        if all(_skeleton(a, values) for a in assertions) and _theory_consistent(
            values
        ):
            return True
    return False


class TestTruthTableOracle:
    def test_oracle_sees_through_theories(self):
        """The oracle itself: a difference cycle and a congruence clash are
        UNSAT, the same skeletons without the clash SAT."""
        x, y = IntVar("t0"), IntVar("t1")
        u = uninterpreted_sort("U")
        a, b = Var("w0", u), Var("w1", u)
        g = Function("g", (u,), u)
        assert not _truth_table_sat([Lt(x, y), Lt(y, x)])
        assert _truth_table_sat([Or(Lt(x, y), Lt(y, x))])
        assert not _truth_table_sat([Eq(a, b), Not(Eq(App(g, a), App(g, b)))])
        assert _truth_table_sat([Eq(a, b), Not(Eq(App(g, a), b))])

    @pytest.mark.parametrize("chunk", range(NUM_CHUNKS))
    def test_verdicts_match_truth_table(self, chunk):
        verdicts = set()
        for index in range(TINY_PER_CHUNK):
            seed = chunk * TINY_PER_CHUNK + index
            assertions = _tiny_assertions(random.Random(30_000 + seed))
            verdict, _ = _solve(assertions)
            expected = (
                CheckResult.SAT if _truth_table_sat(assertions) else CheckResult.UNSAT
            )
            assert verdict is expected, (
                f"seed {seed}: engine={verdict} truth table={expected} "
                f"on {[str(a) for a in assertions]}"
            )
            verdicts.add(verdict)
        assert verdicts == BOTH_VERDICTS


# ---------------------------------------------------------------------------
# Mixed EUF / IDL / LIA corpus
# ---------------------------------------------------------------------------


class TestMixedCorpus:
    @pytest.mark.parametrize("chunk", range(NUM_CHUNKS))
    def test_sat_models_evaluate_true(self, chunk):
        """NUM_FORMULAS seeded mixed-theory formulas: never UNKNOWN, and
        every SAT model (of a formula without function applications, which
        a model cannot evaluate) satisfies every assertion."""
        per_chunk = NUM_FORMULAS // NUM_CHUNKS
        verdicts = set()
        for index in range(per_chunk):
            seed = chunk * per_chunk + index
            assertions, has_apps = _random_assertions(random.Random(1_000 + seed))
            verdict, backend = _solve(assertions)
            assert verdict is not CheckResult.UNKNOWN, f"seed {seed}"
            verdicts.add(verdict)
            if verdict is CheckResult.SAT and not has_apps:
                _assert_model(backend, assertions, f"seed {seed}")
        assert verdicts == BOTH_VERDICTS

    def test_theory_conflicts_arrive_on_partial_assignments(self):
        """The point of the online integration: theory conflicts are raised
        before the SAT core holds a complete model."""
        rng = random.Random(42)
        partial = 0
        for _ in range(40):
            assertions, _ = _random_assertions(rng)
            _, backend = _solve(assertions)
            partial += backend.engine.stats.theory_partial_conflicts
        assert partial > 0

    def test_iteration_budget_binds_theory_rounds_not_boolean_search(self):
        """max_iterations is a *theory* budget: a Boolean-hard instance with
        zero theory atoms must be decided under a budget that its Boolean
        conflict count exceeds."""
        pigeons, holes = 6, 5
        v = {
            (p, h): BoolVar(f"p{p}h{h}")
            for p in range(pigeons)
            for h in range(holes)
        }
        terms = [Or([v[(p, h)] for h in range(holes)]) for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    terms.append(Or(Not(v[(p1, h)]), Not(v[(p2, h)])))
        verdict, backend = _solve(terms, max_iterations=50)
        assert verdict is CheckResult.UNSAT
        assert backend.engine.stats.sat_conflicts > 50

    def test_tiny_budget_yields_unknown_resource_on_theory_conflicts(self):
        xs = [IntVar(f"b{i}") for i in range(6)]
        terms = [
            Or(Lt(xs[i], xs[j]), Lt(xs[j], xs[i]))
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        terms += [Le(IntVal(0), x) for x in xs]
        terms += [Le(x, IntVal(4)) for x in xs]
        verdict, backend = _solve(terms, max_iterations=3)
        assert verdict is CheckResult.UNKNOWN
        assert backend.unknown_reason == "resource"
        # A check with no budget left to bind is decided and names no cap.
        verdict, backend = _solve(terms)
        assert verdict is CheckResult.UNSAT
        assert backend.unknown_reason is None

    def test_online_engine_propagates_euf_literals(self):
        """x=y and y=z must propagate x=z instead of deciding it."""
        u = uninterpreted_sort("U")
        x, y, z = (Var(n, u) for n in "xyz")
        verdict, backend = _solve(
            [
                Eq(x, y),
                Eq(y, z),
                Or(Not(Eq(x, z)), Eq(x, y)),  # mentions the x=z atom
            ]
        )
        assert verdict is CheckResult.SAT
        assert backend.engine.stats.theory_propagations > 0


# ---------------------------------------------------------------------------
# Incremental streams against cold backends
# ---------------------------------------------------------------------------


class TestIncrementalStreams:
    def test_assumption_checks_match_fresh_backends(self):
        """An assumption check answers what a cold backend holding the
        assertions plus the assumption answers, and leaves nothing behind."""
        verdicts = set()
        for seed in range(40):
            assertions, has_apps = _random_assertions(random.Random(7_000 + seed))
            probes, probe_apps = _random_assertions(random.Random(8_000 + seed))
            backend = DpllTBackend()
            backend.add_all(assertions)
            assert backend.check() is _solve(assertions)[0], f"seed {seed} (base)"
            for probe in probes[:2]:
                verdict = backend.check(probe)
                assert verdict is _solve(assertions + [probe])[0], (
                    f"seed {seed} (assumption {probe})"
                )
                verdicts.add(verdict)
                if verdict is CheckResult.SAT and not (has_apps or probe_apps):
                    _assert_model(backend, assertions + [probe], f"seed {seed}")
            # The assumptions must not have leaked into the assertion set.
            assert backend.check() is _solve(assertions)[0], f"seed {seed} (re-base)"
        assert verdicts == BOTH_VERDICTS

    def test_push_pop_streams_match_fresh_backends(self):
        verdicts = set()
        for seed in range(25):
            rng = random.Random(11_000 + seed)
            base, _ = _random_assertions(rng)
            scoped, _ = _random_assertions(rng)
            backend = DpllTBackend()
            backend.add_all(base)
            expected_base = _solve(base)[0]
            assert backend.check() is expected_base, f"seed {seed} (base)"
            backend.push()
            backend.add_all(scoped)
            verdict = backend.check()
            assert verdict is _solve(base + scoped)[0], f"seed {seed} (scoped)"
            verdicts.add(verdict)
            backend.pop()
            assert backend.check() is expected_base, f"seed {seed} (popped)"
        assert verdicts == BOTH_VERDICTS


# ---------------------------------------------------------------------------
# Programs against the explicit explorers
# ---------------------------------------------------------------------------

#: Arith-heavy programs in the corpus, and their trace-length cap (explicit
#: exploration is exponential in it; 6 events keeps it to seconds).
PROGRAM_CORPUS_SIZE = 40
PROGRAM_MAX_EVENTS = 6


class TestProgramOracle:
    def test_arith_heavy_programs_match_explorers(self):
        """The full stack (encode -> session -> backend) on arith-heavy
        programs, whose assertions stress IDL chains and the LIA migration,
        agrees with exhaustive and sleep-set exploration on whether an
        assertion can fail.  Sessions enforce per-pair FIFO, the delivery
        order the explorers' runtime implements."""
        rng = random.Random(20_000)
        options = EncoderOptions(enforce_pair_fifo=True)
        verdicts = set()
        checked = 0
        while checked < PROGRAM_CORPUS_SIZE:
            program = random_program(
                rng, max_messages=3, arith_heavy=True, name=f"arith_heavy_{checked}"
            )
            run = run_program(program, seed=0)
            if run.deadlocked or len(run.trace) > PROGRAM_MAX_EVENTS:
                continue
            checked += 1
            session = VerificationSession(run.trace, options=options, program_run=run)
            verdict = session.verdict().verdict
            assert verdict is not Verdict.UNKNOWN, program.name
            explicit = ExplicitStateExplorer(program).explore()
            sleepset = SleepSetExplorer(program).explore()
            assert not explicit.truncated and not sleepset.truncated
            violation = verdict is Verdict.VIOLATION
            assert violation == bool(explicit.assertion_failures), (
                f"{program.name}: symbolic={verdict} explicit={explicit.summary()}"
            )
            assert violation == bool(sleepset.assertion_failures), (
                f"{program.name}: symbolic={verdict} sleepset={sleepset.summary()}"
            )
            verdicts.add(verdict)
        assert verdicts == {Verdict.SAFE, Verdict.VIOLATION}
