"""Tests for the SMT term language and smart constructors."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.smt.sorts import BOOL, INT, uninterpreted_sort
from repro.smt.terms import (
    Add,
    And,
    App,
    BoolVal,
    BoolVar,
    Distinct,
    Eq,
    FALSE,
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
    Mul,
    Ne,
    Neg,
    Not,
    Or,
    Sub,
    TRUE,
    Var,
    Xor,
    atoms_of,
    free_variables,
    substitute,
    term_size,
)
from repro.utils.errors import SolverError


class TestSorts:
    def test_singletons(self):
        assert BOOL.is_bool and not BOOL.is_int
        assert INT.is_int and not INT.is_bool

    def test_uninterpreted(self):
        msg = uninterpreted_sort("Msg")
        assert msg.is_uninterpreted
        with pytest.raises(ValueError):
            uninterpreted_sort("Int")


class TestConstants:
    def test_bool_constants(self):
        assert TRUE.is_true and FALSE.is_false
        assert BoolVal(True) == TRUE
        assert BoolVal(False) == FALSE

    def test_int_constant(self):
        assert IntVal(5).value == 5
        assert IntVal(-3).sort.is_int

    def test_int_constant_rejects_bool(self):
        with pytest.raises(SolverError):
            IntVal(True)

    def test_variables(self):
        x = IntVar("x")
        assert x.is_var and x.sort.is_int
        b = BoolVar("b")
        assert b.sort.is_bool
        with pytest.raises(SolverError):
            Var("", INT)


class TestBooleanConstructors:
    def test_not_folds(self):
        a = BoolVar("a")
        assert Not(TRUE) == FALSE
        assert Not(FALSE) == TRUE
        assert Not(Not(a)) == a

    def test_and_flattens_and_folds(self):
        a, b, c = BoolVar("a"), BoolVar("b"), BoolVar("c")
        term = And(a, And(b, c))
        assert term.kind == "and"
        assert len(term.args) == 3
        assert And(a, TRUE) == a
        assert And(a, FALSE) == FALSE
        assert And() == TRUE
        assert And([a, b]).kind == "and"

    def test_or_flattens_and_folds(self):
        a, b = BoolVar("a"), BoolVar("b")
        assert Or(a, FALSE) == a
        assert Or(a, TRUE) == TRUE
        assert Or() == FALSE
        assert len(Or(a, Or(b, a)).args) == 3

    def test_implies(self):
        a, b = BoolVar("a"), BoolVar("b")
        assert Implies(TRUE, b) == b
        assert Implies(FALSE, b) == TRUE
        assert Implies(a, TRUE) == TRUE
        assert Implies(a, FALSE) == Not(a)
        assert Implies(a, b).kind == "implies"

    def test_iff_and_xor(self):
        a, b = BoolVar("a"), BoolVar("b")
        assert Iff(a, a) == TRUE
        assert Iff(TRUE, b) == b
        assert Iff(FALSE, b) == Not(b)
        assert Xor(a, b) == Not(Iff(a, b))

    def test_ite(self):
        a = BoolVar("a")
        x, y = IntVar("x"), IntVar("y")
        assert Ite(TRUE, x, y) == x
        assert Ite(FALSE, x, y) == y
        assert Ite(a, x, x) == x
        assert Ite(a, x, y).sort.is_int
        with pytest.raises(SolverError):
            Ite(a, x, BoolVar("b"))

    def test_type_errors(self):
        x = IntVar("x")
        with pytest.raises(SolverError):
            And(x)
        with pytest.raises(SolverError):
            Not(x)


class TestArithmeticConstructors:
    def test_add_folds_constants(self):
        x = IntVar("x")
        term = Add(x, IntVal(2), IntVal(3))
        assert term.kind == "add"
        consts = [a.value for a in term.args if a.kind == "intconst"]
        assert consts == [5]
        assert Add(IntVal(2), IntVal(3)) == IntVal(5)
        assert Add(x) == x

    def test_sub_and_neg(self):
        x, y = IntVar("x"), IntVar("y")
        assert Neg(IntVal(4)) == IntVal(-4)
        assert Neg(Neg(x)) == x
        diff = Sub(x, y)
        assert diff.kind == "add"

    def test_mul_linear_only(self):
        x = IntVar("x")
        assert Mul(0, x) == IntVal(0)
        assert Mul(1, x) == x
        assert Mul(2, IntVal(3)) == IntVal(6)
        assert Mul(3, x).kind == "mul"
        with pytest.raises(SolverError):
            Mul(x, IntVar("y"))

    def test_comparisons_fold(self):
        x = IntVar("x")
        assert Le(IntVal(1), IntVal(2)) == TRUE
        assert Lt(IntVal(2), IntVal(2)) == FALSE
        assert Le(x, x) == TRUE
        assert Lt(x, x) == FALSE
        assert Ge(x, IntVal(0)) == Le(IntVal(0), x)
        assert Gt(x, IntVal(0)) == Lt(IntVal(0), x)

    def test_comparison_requires_int(self):
        with pytest.raises(SolverError):
            Le(BoolVar("a"), IntVar("x"))


class TestEquality:
    def test_eq_folding(self):
        x = IntVar("x")
        assert Eq(x, x) == TRUE
        assert Eq(IntVal(1), IntVal(1)) == TRUE
        assert Eq(IntVal(1), IntVal(2)) == FALSE

    def test_eq_sort_mismatch(self):
        with pytest.raises(SolverError):
            Eq(IntVar("x"), BoolVar("b"))

    def test_ne(self):
        x, y = IntVar("x"), IntVar("y")
        assert Ne(x, y) == Not(Eq(x, y))

    def test_distinct(self):
        x, y, z = IntVar("x"), IntVar("y"), IntVar("z")
        term = Distinct(x, y, z)
        # three pairwise disequalities
        assert term.kind == "and"
        assert len(term.args) == 3
        assert Distinct(x) == TRUE
        assert Distinct() == TRUE


class TestUninterpreted:
    def test_application(self):
        f = Function("f", (INT,), INT)
        x = IntVar("x")
        app = App(f, x)
        assert app.kind == "app" and app.sort.is_int
        with pytest.raises(SolverError):
            App(f)
        with pytest.raises(SolverError):
            App(f, BoolVar("b"))

    def test_nullary_constant(self):
        sort = uninterpreted_sort("Msg")
        c = Function("m0", (), sort)
        term = App(c)
        assert term.sort == sort
        assert str(term) == "m0"


class TestHelpers:
    def test_free_variables(self):
        x, y = IntVar("x"), IntVar("y")
        b = BoolVar("b")
        formula = And(b, Lt(x, Add(y, IntVal(1))))
        variables = free_variables(formula)
        assert set(variables) == {"x", "y", "b"}
        assert variables["x"].is_int
        assert variables["b"].is_bool

    def test_substitute(self):
        x, y = IntVar("x"), IntVar("y")
        formula = Lt(x, Add(x, y))
        result = substitute(formula, {x: IntVal(3)})
        assert "x" not in free_variables(result)

    def test_substitute_sort_mismatch(self):
        with pytest.raises(SolverError):
            substitute(Lt(IntVar("x"), IntVal(1)), {IntVar("x"): BoolVar("b")})

    def test_term_size_and_atoms(self):
        x, y = IntVar("x"), IntVar("y")
        formula = And(Lt(x, y), Or(Le(y, x), BoolVar("b")))
        assert term_size(formula) >= 5
        atoms = atoms_of(formula)
        assert Lt(x, y) in atoms
        assert Le(y, x) in atoms
        assert BoolVar("b") in atoms

    def test_str_roundtrip_shapes(self):
        x = IntVar("x")
        assert str(Lt(x, IntVal(2))) == "(< x 2)"
        assert str(IntVal(-2)) == "(- 2)"
        assert str(TRUE) == "true"


class TestHashing:
    """A term caches its hash; the cache must never cross a process."""

    def test_hash_is_the_field_tuple_hash(self):
        t = And(Lt(IntVar("x"), Add(IntVar("y"), IntVal(1))), BoolVar("b"))
        expected = hash((t.kind, t.sort, t.args, t.name, t.value))
        assert hash(t) == expected
        assert hash(t) == expected  # the cached value

    def test_unpickled_term_is_found_under_another_hash_seed(self):
        term = Lt(IntVar("x"), Add(IntVar("y"), IntVal(1)))
        hash(term)  # fill the cache before pickling
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        script = (
            "import pickle, sys\n"
            "from repro.smt.terms import Add, IntVal, IntVar, Lt\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "built = Lt(IntVar('x'), Add(IntVar('y'), IntVal(1)))\n"
            "assert {built: 1}[loaded] == 1\n"
            "assert {loaded: 1}[built] == 1\n"
            "print(hash('x'))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(term),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr.decode()
        # The subprocess really did salt str hashes differently.
        assert int(completed.stdout) != hash("x")
