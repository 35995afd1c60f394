"""Term language for the SMT layer.

Terms are immutable trees.  The constructor helpers in this module
(:func:`And`, :func:`Or`, :func:`IntVar`, :func:`Le`, ...) perform light
well-sortedness checking and trivial constant folding; heavier rewriting
lives in :mod:`repro.smt.simplify` and the CNF conversion in
:mod:`repro.smt.cnf`.

The fragment is quantifier-free linear integer arithmetic (QF_LIA) plus
Booleans and uninterpreted functions (QF_UFLIA).  The MCAPI trace encoding
(:mod:`repro.encoding`) only ever produces difference-logic atoms, but users
of the solver are free to use the full fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.smt.sorts import BOOL, INT, Sort
from repro.utils.errors import SolverError

__all__ = [
    "Term",
    "Function",
    "BoolVal",
    "TRUE",
    "FALSE",
    "IntVal",
    "BoolVar",
    "IntVar",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Xor",
    "Ite",
    "Eq",
    "Ne",
    "Distinct",
    "Le",
    "Lt",
    "Ge",
    "Gt",
    "Add",
    "Sub",
    "Neg",
    "Mul",
    "App",
    "free_variables",
    "substitute",
    "term_size",
    "atoms_of",
]


# ---------------------------------------------------------------------------
# Core term representation
# ---------------------------------------------------------------------------

_ATOM_KINDS = frozenset({"le", "lt", "eq", "app", "var"})
_BOOL_CONNECTIVES = frozenset({"and", "or", "not", "implies", "iff", "xor", "ite"})


@dataclass(frozen=True)
class Term:
    """An immutable SMT term.

    Attributes
    ----------
    kind:
        One of ``var``, ``intconst``, ``boolconst``, ``add``, ``mul``,
        ``neg``, ``le``, ``lt``, ``eq``, ``distinct``, ``and``, ``or``,
        ``not``, ``implies``, ``iff``, ``xor``, ``ite``, ``app``.
    sort:
        The sort of the term.
    args:
        Child terms (empty for leaves).
    name:
        Variable name or uninterpreted function name (leaves / ``app`` only).
    value:
        Constant payload for ``intconst`` / ``boolconst``.
    """

    kind: str
    sort: Sort
    args: Tuple["Term", ...] = ()
    name: Optional[str] = None
    value: Optional[object] = None

    # -- classification helpers -------------------------------------------------

    @property
    def is_var(self) -> bool:
        return self.kind == "var"

    @property
    def is_const(self) -> bool:
        return self.kind in ("intconst", "boolconst")

    @property
    def is_true(self) -> bool:
        return self.kind == "boolconst" and self.value is True

    @property
    def is_false(self) -> bool:
        return self.kind == "boolconst" and self.value is False

    @property
    def is_bool(self) -> bool:
        return self.sort.is_bool

    @property
    def is_int(self) -> bool:
        return self.sort.is_int

    @property
    def is_atom(self) -> bool:
        """True for Boolean-sorted terms with no Boolean structure inside.

        Atoms are the units the SAT abstraction works over: arithmetic
        comparisons, Boolean variables, Boolean constants and applications
        of Boolean-valued uninterpreted functions.
        """
        if not self.sort.is_bool:
            return False
        return self.kind in ("var", "boolconst", "le", "lt", "eq", "app")

    @property
    def is_connective(self) -> bool:
        return self.kind in _BOOL_CONNECTIVES

    def children(self) -> Tuple["Term", ...]:
        return self.args

    # -- hashing -----------------------------------------------------------------

    def __hash__(self) -> int:
        # The field-tuple hash recurses through the whole subtree, and terms
        # are dict keys all over the backend load (gate cache, atom map), so
        # the value is computed once and kept on the instance.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.kind, self.sort, self.args, self.name, self.value))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> Dict[str, object]:
        # ``str`` hashes are salted per process: a pickled term must not
        # carry its cached hash into another interpreter.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # -- traversal ---------------------------------------------------------------

    def walk(self) -> Iterator["Term"]:
        """Pre-order traversal of the term DAG (each node visited once)."""
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            key = id(node)
            if key in seen:
                continue
            seen.add(key)
            yield node
            stack.extend(node.args)

    # -- pretty printing ---------------------------------------------------------

    def __str__(self) -> str:
        return _to_sexpr(self)

    def __repr__(self) -> str:
        return f"Term({_to_sexpr(self)})"


@dataclass(frozen=True)
class Function:
    """An uninterpreted function (or constant, when ``domain`` is empty).

    >>> f = Function("f", (INT,), INT)
    >>> str(App(f, IntVal(1)))
    '(f 1)'
    """

    name: str
    domain: Tuple[Sort, ...]
    codomain: Sort

    @property
    def arity(self) -> int:
        return len(self.domain)


# ---------------------------------------------------------------------------
# Constructors: constants and variables
# ---------------------------------------------------------------------------


def BoolVal(value: bool) -> Term:
    """The Boolean constant ``true`` or ``false``."""
    return TRUE if value else FALSE


TRUE = Term("boolconst", BOOL, value=True)
FALSE = Term("boolconst", BOOL, value=False)


def IntVal(value: int) -> Term:
    """An integer constant."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SolverError(f"IntVal expects an int, got {value!r}")
    return Term("intconst", INT, value=value)


def Var(name: str, sort: Sort) -> Term:
    """A variable of an arbitrary sort."""
    if not name:
        raise SolverError("variable names must be non-empty")
    return Term("var", sort, name=name)


def BoolVar(name: str) -> Term:
    """A Boolean variable."""
    return Var(name, BOOL)


def IntVar(name: str) -> Term:
    """An integer variable."""
    return Var(name, INT)


# ---------------------------------------------------------------------------
# Constructors: Boolean connectives
# ---------------------------------------------------------------------------


def _require_bool(term: Term, op: str) -> None:
    if not term.sort.is_bool:
        raise SolverError(f"{op} expects Boolean arguments, got sort {term.sort}")


def _require_int(term: Term, op: str) -> None:
    if not term.sort.is_int:
        raise SolverError(f"{op} expects Int arguments, got sort {term.sort}")


def Not(a: Term) -> Term:
    """Logical negation, with double-negation and constant folding."""
    _require_bool(a, "Not")
    if a.is_true:
        return FALSE
    if a.is_false:
        return TRUE
    if a.kind == "not":
        return a.args[0]
    return Term("not", BOOL, (a,))


def And(*args: Union[Term, Iterable[Term]]) -> Term:
    """N-ary conjunction.  Flattens nested conjunctions and folds constants."""
    flat = _flatten_bool_args(args, "and")
    out = []
    for term in flat:
        _require_bool(term, "And")
        if term.is_false:
            return FALSE
        if term.is_true:
            continue
        out.append(term)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return Term("and", BOOL, tuple(out))


def Or(*args: Union[Term, Iterable[Term]]) -> Term:
    """N-ary disjunction.  Flattens nested disjunctions and folds constants."""
    flat = _flatten_bool_args(args, "or")
    out = []
    for term in flat:
        _require_bool(term, "Or")
        if term.is_true:
            return TRUE
        if term.is_false:
            continue
        out.append(term)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Term("or", BOOL, tuple(out))


def _flatten_bool_args(args: Sequence, kind: str) -> Tuple[Term, ...]:
    """Accept both varargs and a single iterable; flatten same-kind nesting."""
    items = []
    for arg in args:
        if isinstance(arg, Term):
            items.append(arg)
        else:
            items.extend(arg)
    flat = []
    for term in items:
        if not isinstance(term, Term):
            raise SolverError(f"expected Term, got {term!r}")
        if term.kind == kind:
            flat.extend(term.args)
        else:
            flat.append(term)
    return tuple(flat)


def Implies(a: Term, b: Term) -> Term:
    """Implication ``a -> b``."""
    _require_bool(a, "Implies")
    _require_bool(b, "Implies")
    if a.is_true:
        return b
    if a.is_false or b.is_true:
        return TRUE
    if b.is_false:
        return Not(a)
    return Term("implies", BOOL, (a, b))


def Iff(a: Term, b: Term) -> Term:
    """Bi-implication ``a <-> b``."""
    _require_bool(a, "Iff")
    _require_bool(b, "Iff")
    if a.is_true:
        return b
    if b.is_true:
        return a
    if a.is_false:
        return Not(b)
    if b.is_false:
        return Not(a)
    if a == b:
        return TRUE
    return Term("iff", BOOL, (a, b))


def Xor(a: Term, b: Term) -> Term:
    """Exclusive or."""
    _require_bool(a, "Xor")
    _require_bool(b, "Xor")
    return Not(Iff(a, b))


def Ite(cond: Term, then: Term, other: Term) -> Term:
    """If-then-else.  ``then`` and ``other`` must have the same sort."""
    _require_bool(cond, "Ite")
    if then.sort != other.sort:
        raise SolverError(
            f"Ite branches must share a sort, got {then.sort} and {other.sort}"
        )
    if cond.is_true:
        return then
    if cond.is_false:
        return other
    if then == other:
        return then
    return Term("ite", then.sort, (cond, then, other))


# ---------------------------------------------------------------------------
# Constructors: equality and arithmetic
# ---------------------------------------------------------------------------


def Eq(a: Term, b: Term) -> Term:
    """Equality over any common sort, with constant folding."""
    if a.sort != b.sort:
        raise SolverError(f"Eq over different sorts: {a.sort} vs {b.sort}")
    if a == b:
        return TRUE
    if a.is_const and b.is_const:
        return BoolVal(a.value == b.value)
    return Term("eq", BOOL, (a, b))


def Ne(a: Term, b: Term) -> Term:
    """Disequality (negated equality)."""
    return Not(Eq(a, b))


def Distinct(*args: Union[Term, Iterable[Term]]) -> Term:
    """Pairwise distinctness of all arguments."""
    items: list = []
    for arg in args:
        if isinstance(arg, Term):
            items.append(arg)
        else:
            items.extend(arg)
    if len(items) <= 1:
        return TRUE
    conj = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            conj.append(Ne(items[i], items[j]))
    return And(conj)


def Le(a: Term, b: Term) -> Term:
    """``a <= b`` over Int."""
    _require_int(a, "Le")
    _require_int(b, "Le")
    if a.is_const and b.is_const:
        return BoolVal(a.value <= b.value)
    if a == b:
        return TRUE
    return Term("le", BOOL, (a, b))


def Lt(a: Term, b: Term) -> Term:
    """``a < b`` over Int."""
    _require_int(a, "Lt")
    _require_int(b, "Lt")
    if a.is_const and b.is_const:
        return BoolVal(a.value < b.value)
    if a == b:
        return FALSE
    return Term("lt", BOOL, (a, b))


def Ge(a: Term, b: Term) -> Term:
    """``a >= b`` (encoded as ``b <= a``)."""
    return Le(b, a)


def Gt(a: Term, b: Term) -> Term:
    """``a > b`` (encoded as ``b < a``)."""
    return Lt(b, a)


def Add(*args: Union[Term, Iterable[Term]]) -> Term:
    """N-ary integer addition with constant folding."""
    items: list = []
    for arg in args:
        if isinstance(arg, Term):
            items.append(arg)
        else:
            items.extend(arg)
    flat: list = []
    const = 0
    for term in items:
        _require_int(term, "Add")
        if term.kind == "intconst":
            const += term.value
        elif term.kind == "add":
            for sub in term.args:
                if sub.kind == "intconst":
                    const += sub.value
                else:
                    flat.append(sub)
        else:
            flat.append(term)
    if const != 0 or not flat:
        flat.append(IntVal(const))
    if len(flat) == 1:
        return flat[0]
    return Term("add", INT, tuple(flat))


def Neg(a: Term) -> Term:
    """Unary integer negation."""
    _require_int(a, "Neg")
    if a.kind == "intconst":
        return IntVal(-a.value)
    if a.kind == "neg":
        return a.args[0]
    return Term("neg", INT, (a,))


def Sub(a: Term, b: Term) -> Term:
    """Integer subtraction ``a - b``."""
    return Add(a, Neg(b))


def Mul(coeff: Union[int, Term], term: Union[int, Term]) -> Term:
    """Multiplication by a constant (linear arithmetic only).

    Exactly one side must be (or fold to) an integer constant; general
    non-linear multiplication is rejected.
    """
    a = IntVal(coeff) if isinstance(coeff, int) else coeff
    b = IntVal(term) if isinstance(term, int) else term
    _require_int(a, "Mul")
    _require_int(b, "Mul")
    if a.kind == "intconst" and b.kind == "intconst":
        return IntVal(a.value * b.value)
    if b.kind == "intconst":
        a, b = b, a
    if a.kind != "intconst":
        raise SolverError("Mul is restricted to linear terms (constant * term)")
    if a.value == 0:
        return IntVal(0)
    if a.value == 1:
        return b
    return Term("mul", INT, (a, b))


def App(func: Function, *args: Term) -> Term:
    """Application of an uninterpreted function (or constant)."""
    if len(args) != func.arity:
        raise SolverError(
            f"function {func.name} expects {func.arity} arguments, got {len(args)}"
        )
    for actual, expected in zip(args, func.domain):
        if actual.sort != expected:
            raise SolverError(
                f"argument of sort {actual.sort} where {expected} expected "
                f"in application of {func.name}"
            )
    return Term("app", func.codomain, tuple(args), name=func.name)


# ---------------------------------------------------------------------------
# Generic helpers over terms
# ---------------------------------------------------------------------------


def free_variables(term: Term) -> Dict[str, Sort]:
    """All variables occurring in ``term`` (name -> sort)."""
    out: Dict[str, Sort] = {}
    for node in term.walk():
        if node.is_var:
            out[node.name] = node.sort
    return out


def substitute(term: Term, mapping: Dict[Term, Term]) -> Term:
    """Simultaneously replace occurrences of keys of ``mapping`` in ``term``.

    Substitution is structural: any subterm equal to a key is replaced by the
    corresponding value (which must have the same sort).
    """
    for old, new in mapping.items():
        if old.sort != new.sort:
            raise SolverError(
                f"substitution changes sort: {old.sort} -> {new.sort}"
            )

    cache: Dict[int, Term] = {}

    def rebuild(node: Term) -> Term:
        if node in mapping:
            return mapping[node]
        if not node.args:
            return node
        key = id(node)
        if key in cache:
            return cache[key]
        new_args = tuple(rebuild(child) for child in node.args)
        if new_args == node.args:
            result = node
        else:
            result = Term(node.kind, node.sort, new_args, node.name, node.value)
        cache[key] = result
        return result

    return rebuild(term)


def term_size(term: Term) -> int:
    """Number of nodes in the term tree (DAG nodes counted once)."""
    return sum(1 for _ in term.walk())


def atoms_of(term: Term) -> Tuple[Term, ...]:
    """All distinct atoms occurring in a Boolean term, in discovery order."""
    seen = []
    seen_set = set()
    for node in term.walk():
        if node.is_atom and node.kind != "boolconst" and node not in seen_set:
            seen.append(node)
            seen_set.add(node)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Printing (s-expression, SMT-LIB compatible operators)
# ---------------------------------------------------------------------------

_SMT_OPS = {
    "and": "and",
    "or": "or",
    "not": "not",
    "implies": "=>",
    "iff": "=",
    "ite": "ite",
    "eq": "=",
    "le": "<=",
    "lt": "<",
    "add": "+",
    "neg": "-",
    "mul": "*",
}


def _to_sexpr(term: Term) -> str:
    if term.kind == "var":
        return term.name  # type: ignore[return-value]
    if term.kind == "intconst":
        value = term.value
        return str(value) if value >= 0 else f"(- {-value})"
    if term.kind == "boolconst":
        return "true" if term.value else "false"
    if term.kind == "app":
        if not term.args:
            return term.name  # type: ignore[return-value]
        inner = " ".join(_to_sexpr(a) for a in term.args)
        return f"({term.name} {inner})"
    op = _SMT_OPS.get(term.kind, term.kind)
    inner = " ".join(_to_sexpr(a) for a in term.args)
    return f"({op} {inner})"
