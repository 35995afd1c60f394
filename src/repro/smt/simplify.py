"""Formula preprocessing passes.

The DPLL(T) loop requires its input to be *theory-clean*:

* no integer ``ite`` terms inside atoms (lifted to Boolean structure),
* no integer equalities (rewritten to conjunctions of ``<=``),
* no Boolean equalities (rewritten to ``iff``).

These passes are pure term-to-term rewrites and preserve equivalence, so
they can be applied regardless of the polarity of the rewritten subterm.

:func:`preprocess` does all of it in one bottom-up pass; the four separate
passes stay public as its reference semantics (``preprocess(t)`` is
structurally equal to applying them in the canonical order).
"""

from __future__ import annotations

from typing import Dict

from repro.smt.terms import (
    And,
    Eq,
    FALSE,
    Iff,
    Implies,
    Ite,
    Le,
    Lt,
    Not,
    Or,
    TRUE,
    Term,
)
from repro.utils.errors import SolverError

__all__ = ["preprocess", "eliminate_int_ite", "eliminate_int_equalities", "rewrite_bool_eq", "simplify_constants"]


def preprocess(term: Term) -> Term:
    """All preprocessing passes in one bottom-up pass.

    Equal to :func:`simplify_constants` ∘ :func:`eliminate_int_equalities`
    ∘ :func:`rewrite_bool_eq` ∘ :func:`eliminate_int_ite`: Boolean
    equalities become ``iff``, integer equalities two ``<=``, and every node
    is rebuilt through its folding constructor.  An atom holding an integer
    ``ite`` is first lifted by the ite pass, and the pass runs on the lift.
    """
    if not term.sort.is_bool:
        raise SolverError("preprocess expects a Boolean formula")
    return _formula(term)


class _IntIteFound(Exception):
    """Raised inside an atom that still holds an integer ``ite``."""


_LIFT_CONNECTIVES = frozenset({"and", "or", "not", "implies", "iff"})


def _formula(term: Term) -> Term:
    """The Boolean structure above the atoms, where ``ite`` lifting applies."""
    kind = term.kind
    if kind in _LIFT_CONNECTIVES or (kind == "ite" and term.sort.is_bool):
        return _rebuild(term, tuple(_formula(a) for a in term.args))
    try:
        return _rewrite(term)
    except _IntIteFound:
        return _formula(_lift_ite(term))


def _rewrite(term: Term) -> Term:
    """The combined rewrite of a subterm without integer ``ite`` lifting."""
    args = term.args
    if not args:
        return term
    kind = term.kind
    if kind == "le" or kind == "lt":
        a, b = args
        if not a.args and not b.args and a != b and not (a.is_const and b.is_const):
            return term  # a comparison of leaves is already folded
    elif kind == "eq":
        a = _rewrite(args[0])
        b = _rewrite(args[1])
        if a.sort.is_bool:
            return Iff(a, b)
        if a.sort.is_int:
            return And(Le(a, b), Le(b, a))
        return Eq(a, b)
    elif kind == "ite" and term.sort.is_int:
        raise _IntIteFound
    return _rebuild(term, tuple(_rewrite(a) for a in args))


def _rebuild(term: Term, args: tuple) -> Term:
    """``term`` over new ``args``, through the folding constructor."""
    kind = term.kind
    if kind == "and":
        return And(args)
    if kind == "or":
        return Or(args)
    if kind == "not":
        return Not(args[0])
    if kind == "implies":
        return Implies(args[0], args[1])
    if kind == "iff":
        return Iff(args[0], args[1])
    if kind == "ite":
        return Ite(args[0], args[1], args[2])
    if kind == "eq":
        return Eq(args[0], args[1])
    if kind == "le":
        return Le(args[0], args[1])
    if kind == "lt":
        return Lt(args[0], args[1])
    if args == term.args:
        return term
    return Term(kind, term.sort, args, term.name, term.value)


# ---------------------------------------------------------------------------
# Integer if-then-else lifting
# ---------------------------------------------------------------------------


def eliminate_int_ite(term: Term) -> Term:
    """Lift integer-sorted ``ite`` nodes out of atoms.

    An atom ``P[ite(c, t, e)]`` becomes ``(c and P[t]) or (not c and P[e])``.
    The rewrite is applied innermost-first until no integer ``ite`` remains.
    """
    if not term.sort.is_bool:
        raise SolverError("eliminate_int_ite expects a Boolean formula")
    return _lift_ite(term)


def _find_int_ite(term: Term) -> Term | None:
    for node in term.walk():
        if node.kind == "ite" and node.sort.is_int:
            return node
    return None


def _replace(term: Term, old: Term, new: Term) -> Term:
    if term == old:
        return new
    if not term.args:
        return term
    new_args = tuple(_replace(a, old, new) for a in term.args)
    if new_args == term.args:
        return term
    return Term(term.kind, term.sort, new_args, term.name, term.value)


def _lift_ite(term: Term) -> Term:
    if term.kind in _LIFT_CONNECTIVES:
        new_args = tuple(_lift_ite(a) for a in term.args)
        if new_args == term.args:
            return term
        return Term(term.kind, term.sort, new_args, term.name, term.value)
    if term.kind == "ite" and term.sort.is_bool:
        cond, then, other = (_lift_ite(a) for a in term.args)
        return Ite(cond, then, other)
    # Atom (or Boolean leaf): lift any integer ite found inside.
    ite_node = _find_int_ite(term)
    if ite_node is None:
        return term
    cond, then, other = ite_node.args
    then_branch = _replace(term, ite_node, then)
    else_branch = _replace(term, ite_node, other)
    return Or(
        And(_lift_ite(cond), _lift_ite(then_branch)),
        And(Not(_lift_ite(cond)), _lift_ite(else_branch)),
    )


# ---------------------------------------------------------------------------
# Equality elimination
# ---------------------------------------------------------------------------


def eliminate_int_equalities(term: Term) -> Term:
    """Rewrite every integer equality ``a = b`` into ``a <= b  and  b <= a``.

    After this pass no ``eq`` atom over Int remains, so the theory layer
    never sees a *negated* integer equality (which is not a conjunctive
    constraint).
    """
    if term.kind == "eq" and term.args[0].sort.is_int:
        a, b = (eliminate_int_equalities(x) for x in term.args)
        return And(Le(a, b), Le(b, a))
    if not term.args:
        return term
    new_args = tuple(eliminate_int_equalities(a) for a in term.args)
    if new_args == term.args:
        return term
    return Term(term.kind, term.sort, new_args, term.name, term.value)


def rewrite_bool_eq(term: Term) -> Term:
    """Rewrite equality between Boolean terms into ``iff``."""
    if term.kind == "eq" and term.args[0].sort.is_bool:
        a, b = (rewrite_bool_eq(x) for x in term.args)
        return Iff(a, b)
    if not term.args:
        return term
    new_args = tuple(rewrite_bool_eq(a) for a in term.args)
    if new_args == term.args:
        return term
    return Term(term.kind, term.sort, new_args, term.name, term.value)


# ---------------------------------------------------------------------------
# Constant propagation
# ---------------------------------------------------------------------------


def simplify_constants(term: Term) -> Term:
    """Bottom-up constant folding using the smart constructors.

    The constructors in :mod:`repro.smt.terms` already fold constants, so a
    single bottom-up rebuild propagates ``true`` / ``false`` / numerals as far
    as they will go.
    """
    if not term.args:
        return term
    return _rebuild(term, tuple(simplify_constants(a) for a in term.args))
