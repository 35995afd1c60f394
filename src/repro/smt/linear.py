"""Normalisation of integer terms into linear forms.

The theory solvers work over *normalised atoms* of the shape

    sum_i  c_i * x_i   <=   k          (c_i, k integers)

This module converts arbitrary ``Int``-sorted terms built from ``Add``,
``Sub``, ``Neg``, ``Mul`` (by constants), variables and constants into a
:class:`LinearExpr`, and arithmetic atoms (``le``, ``lt``, ``eq``) into one
or two :class:`LinearLe` constraints.

Strictness over the integers is eliminated up-front:  ``a < b`` is exactly
``a <= b - 1``, and the negation of ``a <= b`` is ``b <= a - 1``.  This means
both the positive and the negative phase of every arithmetic atom is again a
single ``LinearLe`` — a property the lazy DPLL(T) loop relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.smt.terms import Term
from repro.utils.errors import SolverError

__all__ = ["LinearExpr", "LinearLe", "linearize", "atom_to_constraints"]


@dataclass(frozen=True)
class LinearExpr:
    """An integer-valued linear expression ``sum coeffs[x] * x + const``."""

    coeffs: Tuple[Tuple[str, int], ...]
    const: int = 0

    @staticmethod
    def from_dict(coeffs: Dict[str, int], const: int = 0) -> "LinearExpr":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return LinearExpr(items, const)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def negate(self) -> "LinearExpr":
        # Negation keeps the sorted order and nonzero coefficients.
        return LinearExpr(tuple((v, -c) for v, c in self.coeffs), -self.const)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def evaluate(self, assignment: Dict[str, int]) -> int:
        """Evaluate under a (total, for the mentioned variables) assignment."""
        total = self.const
        for var, coeff in self.coeffs:
            total += coeff * assignment[var]
        return total

    def __str__(self) -> str:
        parts = []
        for var, coeff in self.coeffs:
            if coeff == 1:
                parts.append(var)
            elif coeff == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{coeff}*{var}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class LinearLe:
    """The normalised constraint ``expr <= bound``.

    ``expr`` carries no constant part — it is folded into ``bound``.
    """

    expr: LinearExpr
    bound: int

    def negated(self) -> "LinearLe":
        """The integer negation: ``not (e <= b)``  ==  ``-e <= -b - 1``."""
        return LinearLe(self.expr.negate(), -self.bound - 1)

    @property
    def is_difference(self) -> bool:
        """True for difference-logic constraints ``x - y <= k``, ``x <= k``,
        ``-x <= k`` or constant constraints."""
        coeffs = self.expr.coeffs
        if not coeffs:
            return True
        if len(coeffs) == 1:
            return coeffs[0][1] in (1, -1)
        if len(coeffs) == 2:
            first = coeffs[0][1]
            return first in (1, -1) and coeffs[1][1] == -first
        return False

    @property
    def is_trivially_true(self) -> bool:
        return self.expr.is_constant and 0 <= self.bound

    @property
    def is_trivially_false(self) -> bool:
        return self.expr.is_constant and 0 > self.bound

    def holds(self, assignment: Dict[str, int]) -> bool:
        return self.expr.evaluate(assignment) <= self.bound

    def __str__(self) -> str:
        return f"{self.expr} <= {self.bound}"


def linearize(term: Term) -> LinearExpr:
    """Convert an ``Int``-sorted term into a :class:`LinearExpr`.

    Raises :class:`SolverError` for non-linear or non-arithmetic structure
    (e.g. integer ``ite`` — eliminate those with
    :func:`repro.smt.simplify.eliminate_ite` first).
    """
    coeffs: Dict[str, int] = {}
    const = _accumulate(term, 1, coeffs)
    return LinearExpr.from_dict(coeffs, const)


def _accumulate(term: Term, factor: int, coeffs: Dict[str, int]) -> int:
    """Add ``factor * term`` into ``coeffs``; returns ``factor`` times the
    term's constant part."""
    if not term.sort.is_int:
        raise SolverError(f"linearize expects an Int term, got {term.sort}")
    kind = term.kind
    if kind == "var" or (kind == "app" and not term.args):
        name = term.name
        coeffs[name] = coeffs.get(name, 0) + factor  # type: ignore[index]
        return 0
    if kind == "intconst":
        return factor * term.value  # type: ignore[operator]
    if kind == "add":
        return sum(_accumulate(child, factor, coeffs) for child in term.args)
    if kind == "neg":
        return _accumulate(term.args[0], -factor, coeffs)
    if kind == "mul":
        coeff_term, other = term.args
        if coeff_term.kind != "intconst":
            raise SolverError("non-linear multiplication is not supported")
        return _accumulate(other, factor * coeff_term.value, coeffs)  # type: ignore[operator]
    raise SolverError(f"cannot linearize term of kind {kind!r}: {term}")


def atom_to_constraints(atom: Term, positive: bool) -> Tuple[LinearLe, ...]:
    """Translate an arithmetic atom (or its negation) into ``LinearLe``s.

    * ``a <= b``  (positive)  ->  ``a - b <= 0``
    * ``a <= b``  (negative)  ->  ``b - a <= -1``
    * ``a < b``   (positive)  ->  ``a - b <= -1``
    * ``a < b``   (negative)  ->  ``b - a <= 0``
    * ``a = b``   (positive)  ->  ``a - b <= 0``  and  ``b - a <= 0``
    * ``a = b``   (negative)  ->  *not representable as a conjunction*;
      callers must eliminate negative integer equalities before reaching the
      theory (see :func:`repro.smt.simplify.eliminate_int_equalities`).
    """
    kind = atom.kind
    if kind not in ("le", "lt", "eq"):
        raise SolverError(f"not an arithmetic atom: {atom}")
    lhs, rhs = atom.args
    # Both sides go into one coefficient dict, normalised once.
    coeffs: Dict[str, int] = {}
    const = _accumulate(lhs, 1, coeffs) + _accumulate(rhs, -1, coeffs)
    expr = LinearExpr.from_dict(coeffs)
    offset = -const

    if kind == "le":
        if positive:
            return (LinearLe(expr, offset),)
        return (LinearLe(expr, offset).negated(),)
    if kind == "lt":
        if positive:
            return (LinearLe(expr, offset - 1),)
        return (LinearLe(expr, offset - 1).negated(),)
    # Equality.
    if positive:
        return (LinearLe(expr, offset), LinearLe(expr.negate(), -offset))
    raise SolverError(
        "negated integer equality reached the theory layer; "
        "run simplify.eliminate_int_equalities() on the formula first"
    )
