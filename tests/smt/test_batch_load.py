"""The batch backend load is the term-at-a-time load, only faster.

* ``preprocess`` (one bottom-up pass) is structurally equal to the four
  reference passes applied in the canonical order, on random formulas
  with integer ``ite``, integer and Boolean equalities, constants and EUF
  equalities;
* loading an encoded program with ``add_all`` leaves exactly the clauses,
  variable numbering and atom order of ``tseitin`` over the reference
  passes, and the same SAT clause database, verdict and search counters
  as asserting the terms one at a time;
* a batch with an invalid term is rejected before any term is asserted.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.encoding import EncoderOptions
from repro.smt.backend import DpllTBackend
from repro.smt.cnf import tseitin
from repro.smt.dpllt import CheckResult, IncrementalDpllTEngine
from repro.smt.simplify import (
    eliminate_int_equalities,
    eliminate_int_ite,
    preprocess,
    rewrite_bool_eq,
    simplify_constants,
)
from repro.smt.sorts import INT, uninterpreted_sort
from repro.smt.terms import (
    FALSE,
    TRUE,
    Add,
    And,
    App,
    BoolVar,
    Eq,
    Function,
    Iff,
    Implies,
    IntVal,
    IntVar,
    Ite,
    Le,
    Lt,
    Mul,
    Neg,
    Not,
    Or,
    Var,
    Xor,
)
from repro.utils.errors import SolverError
from repro.verification.session import VerificationSession, resolve_mode
from repro.workloads.generators import (
    circular_wait,
    random_program,
    scatter_gather,
    starved_fanin,
)


def reference(term):
    """The four preprocessing passes, in the canonical order."""
    return simplify_constants(
        eliminate_int_equalities(rewrite_bool_eq(eliminate_int_ite(term)))
    )


# ---------------------------------------------------------------------------
# preprocess == the reference passes
# ---------------------------------------------------------------------------

_U = uninterpreted_sort("U")
_F = Function("f", (INT,), _U)
_INT_LEAVES = [IntVar("x"), IntVar("y"), IntVal(0), IntVal(1), IntVal(-2)]
_BOOL_LEAVES = [BoolVar("p"), BoolVar("q"), TRUE, FALSE]
_U_LEAVES = [Var("u0", _U), Var("u1", _U)]


@lru_cache(maxsize=None)
def _ints(depth):
    leaves = st.sampled_from(_INT_LEAVES)
    if depth == 0:
        return leaves
    sub = _ints(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Add, sub, sub),
        st.builds(Neg, sub),
        st.builds(lambda t: Mul(2, t), sub),
        st.builds(Ite, _bools(depth - 1), sub, sub),
    )


@lru_cache(maxsize=None)
def _bools(depth):
    leaves = st.sampled_from(_BOOL_LEAVES)
    if depth == 0:
        return leaves
    ints = _ints(depth - 1)
    sub = _bools(depth - 1)
    uninterpreted = st.one_of(
        st.sampled_from(_U_LEAVES), st.builds(lambda t: App(_F, t), ints)
    )
    return st.one_of(
        leaves,
        st.builds(Le, ints, ints),
        st.builds(Lt, ints, ints),
        st.builds(Eq, ints, ints),
        st.builds(Eq, sub, sub),
        st.builds(Eq, uninterpreted, uninterpreted),
        st.builds(Not, sub),
        st.builds(lambda a, b: And(a, b), sub, sub),
        st.builds(lambda a, b: Or(a, b), sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Xor, sub, sub),
        st.builds(Ite, sub, sub, sub),
    )


_P = _BOOL_LEAVES[0]
_X, _Y = _INT_LEAVES[:2]


class TestOnePassPreprocess:
    @settings(max_examples=300, deadline=None)
    @given(_bools(3))
    # Lifting builds raw comparisons of leaves that still fold: constants
    # (``1 <= 2``) and a leaf against itself (``x < x``).
    @example(Le(Ite(_P, IntVal(1), IntVal(3)), IntVal(2)))
    @example(Lt(Ite(_P, _X, _Y), _X))
    def test_equals_the_reference_passes(self, formula):
        assert preprocess(formula) == reference(formula)

    def test_lifts_an_int_ite_inside_an_euf_atom(self):
        x, y, p = IntVar("x"), IntVar("y"), BoolVar("p")
        atom = Eq(App(_F, Ite(p, x, Add(y, IntVal(1)))), _U_LEAVES[0])
        result = preprocess(atom)
        assert result == reference(atom)
        assert not any(n.kind == "ite" for n in result.walk())

    def test_comparison_of_leaves_is_returned_as_is(self):
        atom = Lt(IntVar("x"), IntVal(3))
        assert preprocess(atom) is atom

    def test_rejects_a_non_boolean_term(self):
        with pytest.raises(SolverError):
            preprocess(IntVar("x"))


# ---------------------------------------------------------------------------
# add_all == term-at-a-time, on encoded programs
# ---------------------------------------------------------------------------


def _program_cases():
    cases = []
    for index in range(5):
        program = random_program(
            random.Random(f"batch-load-deadlock-{index}"), allow_deadlock=True
        )
        for mode in ("deadlock", "orphan"):
            cases.append((f"random-deadlock-{index}-{mode}", program, mode))
    for index in range(4):
        program = random_program(
            random.Random(f"batch-load-arith-{index}"), arith_heavy=True
        )
        cases.append((f"random-arith-{index}", program, "safety"))
    for size in (2, 3):
        cases.append((f"circular_wait_{size}", circular_wait(size), "deadlock"))
        cases.append(
            (f"circular_wait_{size}_kick", circular_wait(size, True), "deadlock")
        )
        cases.append((f"starved_fanin_{size}", starved_fanin(size), "deadlock"))
    for workers in (1, 2, 3):
        cases.append((f"scatter_gather_{workers}", scatter_gather(workers), "safety"))
    return cases


_CASES = _program_cases()


def _assertions(program, mode):
    options, properties = resolve_mode(mode, EncoderOptions(), None)
    session = VerificationSession.from_program(
        program, options=options, properties=properties, on_deadlock="static"
    )
    return session.problem.assertions()


def _sat_clauses(engine):
    sat = engine._sat
    return [sat.clause_lits(ref) for ref in sat.problem_refs()]


@pytest.mark.parametrize(
    "program, mode", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES]
)
def test_batch_load_is_the_reference_load(program, mode):
    assertions = _assertions(program, mode)
    engine = IncrementalDpllTEngine()
    engine.add_all(assertions)
    loaded = engine._converter.result
    expected = tseitin([reference(a) for a in assertions])
    assert loaded.clauses == expected.clauses
    assert loaded.num_vars == expected.num_vars
    assert list(loaded.atom_to_var.items()) == list(expected.atom_to_var.items())

    one_at_a_time = IncrementalDpllTEngine()
    for term in assertions:
        one_at_a_time.add(term)
    assert _sat_clauses(engine) == _sat_clauses(one_at_a_time)
    assert engine._sat.num_vars == one_at_a_time._sat.num_vars


@pytest.mark.parametrize(
    "program, mode", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES]
)
def test_batch_load_searches_like_a_term_at_a_time_load(program, mode):
    assertions = _assertions(program, mode)
    batch = DpllTBackend()
    batch.add_all(assertions)
    single = DpllTBackend()
    for term in assertions:
        single.add(term)
    assert batch.check() is single.check()
    batch_stats, single_stats = batch.statistics(), single.statistics()
    assert batch_stats["sat_conflicts"] == single_stats["sat_conflicts"]
    assert batch_stats["sat_decisions"] == single_stats["sat_decisions"]
    assert batch_stats == single_stats


# ---------------------------------------------------------------------------
# A rejected batch asserts nothing
# ---------------------------------------------------------------------------


class TestRejectedBatch:
    @pytest.mark.parametrize("method", ["add_all", "add"])
    def test_invalid_term_rejects_the_whole_batch(self, method):
        x, y = IntVar("x"), IntVar("y")
        backend = DpllTBackend()
        batch = [Lt(x, y), IntVar("z")]
        with pytest.raises(SolverError):
            if method == "add_all":
                backend.add_all(batch)
            else:
                backend.add(*batch)
        engine = backend.engine
        assert engine._converter.result.atom_to_var == {}
        assert engine._core.num_arith_atoms == 0
        assert backend.check(Not(Lt(x, y))) is CheckResult.SAT
