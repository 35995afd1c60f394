"""Linear integer arithmetic (QF_LIA) theory solver.

The solver decides satisfiability of a conjunction of constraints

    sum_i c_i * x_i  <=  k        (c_i, k integers, x_i integer variables)

with the general simplex of Dutertre and de Moura ("A Fast Linear-Arithmetic
Solver for DPLL(T)", CAV'06), the algorithm behind Yices:

1. **Tableau.**  Each distinct multi-variable linear form is a *slack*
   variable defined by one tableau row.  Forms are divided by the gcd of
   their coefficients and sign-normalised, so ``x - 2y <= k`` and
   ``-x + 2y <= k'`` bound one slack from above and below.  A
   single-variable constraint is a plain bound on its variable.
2. **Rational feasibility** is incremental.  Asserting a constraint
   tightens one bound, tagged with the asserting literal; a check then
   pivots by Bland's rule until every basic variable is within its bounds.
   When a violated row can no longer be repaired, the row's bounds are the
   conflict.  Backtracking restores bounds only: the assignment stays a
   valid starting point, so no pivot is ever undone.
3. **Integer feasibility** is branch-and-bound at the final check, over
   temporary untagged bounds on an explicit stack.  Past a fixed node cap
   it raises :class:`~repro.utils.errors.ResourceLimitError`, which the
   backends report as ``UNKNOWN`` with reason ``"resource"``.

:class:`IncrementalLinearInt` is the trail-backed solver of the online
DPLL(T) engine (``assert_lit`` / ``retract_to`` / ``explain`` /
``final_check``).

The MCAPI trace encoding itself only produces difference constraints
(handled by the faster :class:`repro.smt.theory.idl.IncrementalDifferenceLogic`);
this solver takes over when a property mentions a non-difference term,
such as a sum of received payloads.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.smt.linear import LinearLe
from repro.smt.theory.idl import TheoryResult
from repro.utils.errors import ResourceLimitError, SolverError

__all__ = ["IncrementalLinearInt"]

#: Cap on branch-and-bound nodes per final check; past it the solver gives
#: up with a ResourceLimitError rather than a wrong answer.
_MAX_BB_NODES = 20_000

#: A tableau number: a plain int whenever the value is integral (int
#: arithmetic is far cheaper than Fraction arithmetic), else a Fraction.
Num = Union[int, Fraction]

#: One entry of the bound undo trail: (variable, is_upper, old bound, old tag).
_Undo = Tuple[int, bool, Optional[Num], Optional[int]]


def _num(value: Num) -> Num:
    """``value`` as an int when it is integral."""
    if value.__class__ is int or value.denominator != 1:
        return value
    return value.numerator


def _div(a: Num, b: Num) -> Num:
    if a.__class__ is int and b.__class__ is int:
        quotient, remainder = divmod(a, b)
        return quotient if remainder == 0 else Fraction(a, b)
    return _num(Fraction(a) / b)


def _lits(tags: Iterable[Optional[int]]) -> List[int]:
    """Conflict literals: the tags minus temporary (untagged) bounds."""
    return sorted({tag for tag in tags if tag is not None})


class IncrementalLinearInt:
    """Trail-backed LIA: ``assert_lit`` / ``retract_to`` / ``explain``.

    A general simplex in the style of Dutertre and de Moura (CAV'06).  Every
    distinct multi-variable linear form gets one slack variable defined by a
    tableau row; the form is divided by the gcd of its coefficients and
    sign-normalised, so ``x - 2y <= k`` and ``-x + 2y <= k'`` bound the same
    slack from above and below.  A single-variable constraint bounds its
    variable directly.  Rows are created the first time a form is asserted
    and are never removed.

    * :meth:`assert_lit` tightens bounds (each tagged with the asserting
      literal) and runs the incremental check: Bland's rule pivots until
      every basic variable is within its bounds or a row can no longer be
      repaired.  Such a row is the conflict: the violated bound plus the
      bounds that block each of its non-basic variables.
    * :meth:`retract_to` restores bounds only.  Loosening a bound never
      invalidates the assignment's invariant (non-basic variables within
      their bounds), so no pivot is undone.
    * :meth:`final_check` adds integrality: branch-and-bound over
      temporary, untagged bounds, with an explicit stack and a node cap.
      Past the cap it raises :class:`~repro.utils.errors.ResourceLimitError`.
    """

    def __init__(self) -> None:
        # Variables are indices; structural ones have a name, slacks None.
        self._index: Dict[str, int] = {}
        self._names: List[Optional[str]] = []
        self._slacks: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self._val: List[Num] = []
        self._lo: List[Optional[Num]] = []
        self._hi: List[Optional[Num]] = []
        self._lo_tag: List[Optional[int]] = []
        self._hi_tag: List[Optional[int]] = []
        # basic variable -> {non-basic variable: coefficient}
        self._rows: Dict[int, Dict[int, Num]] = {}
        # non-basic variable -> basic variables whose row mentions it
        self._cols: List[Set[int]] = []
        # Basic variables that may violate a bound (a min-heap: Bland's rule).
        self._dirty: List[int] = []
        self._undo: List[_Undo] = []
        # (lit, constraints, undo height) per assert_lit call.
        self._frames: List[Tuple[int, Tuple[LinearLe, ...], int]] = []
        # constraint -> (variable, is_upper, bound, structural variables)
        self._bounds: Dict[LinearLe, Tuple[int, bool, Num, Tuple[int, ...]]] = {}

    # -- trail ------------------------------------------------------------------

    @property
    def num_asserted(self) -> int:
        return len(self._frames)

    @property
    def assertions(self) -> List[Tuple[int, Tuple[LinearLe, ...]]]:
        return [(lit, constraints) for lit, constraints, _ in self._frames]

    def assert_lit(
        self, lit: int, constraints: Sequence[LinearLe], check: bool = True
    ) -> Optional[List[int]]:
        """Assert ``constraints`` under ``lit``; returns conflict lits or None.

        ``check=False`` only updates the bounds (a direct clash of two
        bounds on one variable is still reported); the next checking call
        covers the skipped check.
        """
        self._frames.append((lit, tuple(constraints), len(self._undo)))
        conflict = self._load(lit, constraints)
        if conflict is None and check:
            conflict = self._check()
        return None if conflict is None else _lits(conflict)

    def retract_to(self, count: int) -> None:
        if len(self._frames) > count:
            height = self._frames[count][2]
            del self._frames[count:]
            self._undo_to(height)

    # -- queries ----------------------------------------------------------------

    def final_check(self) -> TheoryResult:
        """Full integer feasibility of the current trail (model on success)."""
        conflict = self._check()
        if conflict is not None:
            return TheoryResult(satisfiable=False, conflict=_lits(conflict))
        active = self._active()
        base = len(self._undo)
        explanation: Set[Optional[int]] = set()
        # Pending branches: (undo height of the parent, var, is_upper, bound).
        stack: List[Tuple[int, int, bool, Num]] = []
        nodes = 0
        try:
            while True:
                var = self._fractional(active)
                if var is None:
                    model = {self._names[x]: int(self._val[x]) for x in active}
                    return TheoryResult(satisfiable=True, model=model)
                height = len(self._undo)
                floor_value = math.floor(self._val[var])
                stack.append((height, var, False, floor_value + 1))
                stack.append((height, var, True, floor_value))
                while stack:
                    height, var, upper, bound = stack.pop()
                    self._undo_to(height)
                    nodes += 1
                    if nodes > _MAX_BB_NODES:
                        raise ResourceLimitError(
                            f"LIA branch-and-bound node limit ({_MAX_BB_NODES}) exceeded"
                        )
                    conflict = self._assert_bound(var, upper, bound, None)
                    if conflict is None:
                        conflict = self._check()
                    if conflict is None:
                        break
                    explanation.update(conflict)
                else:
                    # Every leaf is rationally infeasible.  An integer point
                    # of the asserted bounds would follow exactly one branch
                    # at each node down to a leaf whose bounds it satisfies,
                    # so the leaves' asserted (tagged) bounds together are
                    # integer-infeasible.  The branch bounds alone always
                    # form a box, so every leaf conflict names one.
                    return TheoryResult(satisfiable=False, conflict=_lits(explanation))
        finally:
            self._undo_to(base)

    def model(self) -> Dict[str, int]:
        result = self.final_check()
        if not result.satisfiable:
            raise SolverError("model() requires a satisfiable LIA trail")
        return result.model or {}

    def explain(self, lit: int) -> List[int]:
        """Literals of *other* assertions rationally entailing ``lit``.

        ``lit``'s own bounds are lifted; then, for each of its constraints,
        the negation is asserted as a temporary bound and checked, and the
        conflicting row's literals join the explanation.  The trail is
        restored afterwards.  Integer-only entailments are not captured
        (they would need a cutting-plane proof).
        """
        for position, (frame_lit, constraints, _) in enumerate(self._frames):
            if frame_lit == lit:
                break
        else:
            raise SolverError(f"literal {lit} is not on the LIA trail")
        restore = self.assertions[position:]
        self.retract_to(position)
        height = len(self._undo)
        tags: Set[Optional[int]] = set()
        try:
            for other, other_constraints in restore[1:]:
                self._load(other, other_constraints)
            for constraint in constraints:
                probe = len(self._undo)
                conflict = self._load(None, [constraint.negated()])
                if conflict is None:
                    conflict = self._check()
                self._undo_to(probe)
                if conflict is None:
                    raise SolverError("LIA explain: literal is not (rationally) entailed")
                tags.update(conflict)
        finally:
            self._undo_to(height)
            for frame_lit, frame_constraints in restore:
                self.assert_lit(frame_lit, frame_constraints, check=False)
        tags.discard(lit)
        return _lits(tags)

    def __len__(self) -> int:
        return len(self._frames)

    # -- bounds -----------------------------------------------------------------

    def _load(
        self, lit: Optional[int], constraints: Sequence[LinearLe]
    ) -> Optional[List[Optional[int]]]:
        """Tighten the bounds of ``constraints`` under tag ``lit``."""
        for constraint in constraints:
            if not constraint.expr.coeffs:
                if constraint.bound < 0:
                    return [lit]
                continue
            var, upper, bound, _ = self._bound_of(constraint)
            conflict = self._assert_bound(var, upper, bound, lit)
            if conflict is not None:
                return conflict
        return None

    def _bound_of(self, constraint: LinearLe) -> Tuple[int, bool, Num, Tuple[int, ...]]:
        """The (variable, is_upper, bound) that ``constraint`` amounts to."""
        entry = self._bounds.get(constraint)
        if entry is not None:
            return entry
        coeffs = sorted((name, c) for name, c in constraint.expr.coeffs if c)
        if len(coeffs) == 1:
            name, coeff = coeffs[0]
            var = self._structural(name)
            entry = (var, coeff > 0, _div(constraint.bound, coeff), (var,))
        else:
            divisor = 0
            for _, coeff in coeffs:
                divisor = math.gcd(divisor, coeff)
            if coeffs[0][1] < 0:
                divisor = -divisor
            form = tuple((name, coeff // divisor) for name, coeff in coeffs)
            var = self._slacks.get(form)
            if var is None:
                var = self._add_row(form)
            structural = tuple(self._index[name] for name, _ in form)
            entry = (var, divisor > 0, _div(constraint.bound, divisor), structural)
        self._bounds[constraint] = entry
        return entry

    def _assert_bound(
        self, var: int, upper: bool, bound: Num, tag: Optional[int]
    ) -> Optional[List[Optional[int]]]:
        """Tighten one bound; a clash with the opposite bound is a conflict."""
        if upper:
            current = self._hi[var]
            if current is not None and current <= bound:
                return None
            opposite = self._lo[var]
            if opposite is not None and bound < opposite:
                return [tag, self._lo_tag[var]]
            self._undo.append((var, True, current, self._hi_tag[var]))
            self._hi[var] = bound
            self._hi_tag[var] = tag
            if var in self._rows:
                heapq.heappush(self._dirty, var)
            elif self._val[var] > bound:
                self._update(var, bound)
        else:
            current = self._lo[var]
            if current is not None and current >= bound:
                return None
            opposite = self._hi[var]
            if opposite is not None and bound > opposite:
                return [tag, self._hi_tag[var]]
            self._undo.append((var, False, current, self._lo_tag[var]))
            self._lo[var] = bound
            self._lo_tag[var] = tag
            if var in self._rows:
                heapq.heappush(self._dirty, var)
            elif self._val[var] < bound:
                self._update(var, bound)
        return None

    def _undo_to(self, height: int) -> None:
        undo = self._undo
        while len(undo) > height:
            var, upper, bound, tag = undo.pop()
            if upper:
                self._hi[var] = bound
                self._hi_tag[var] = tag
            else:
                self._lo[var] = bound
                self._lo_tag[var] = tag

    # -- tableau ----------------------------------------------------------------

    def _new_var(self, name: Optional[str]) -> int:
        var = len(self._names)
        self._names.append(name)
        self._val.append(0)
        self._lo.append(None)
        self._hi.append(None)
        self._lo_tag.append(None)
        self._hi_tag.append(None)
        self._cols.append(set())
        return var

    def _structural(self, name: str) -> int:
        var = self._index.get(name)
        if var is None:
            var = self._new_var(name)
            self._index[name] = var
        return var

    def _add_row(self, form: Tuple[Tuple[str, int], ...]) -> int:
        """A slack for ``form``, its row written over non-basic variables."""
        row: Dict[int, Num] = {}
        value: Num = 0
        for name, coeff in form:
            var = self._structural(name)
            value += coeff * self._val[var]
            definition = self._rows.get(var)
            if definition is None:
                row[var] = row.get(var, 0) + coeff
            else:
                for other, c in definition.items():
                    row[other] = _num(row.get(other, 0) + coeff * c)
        slack = self._new_var(None)
        self._slacks[form] = slack
        self._val[slack] = _num(value)
        row = {var: c for var, c in row.items() if c != 0}
        self._rows[slack] = row
        for var in row:
            self._cols[var].add(slack)
        return slack

    def _update(self, var: int, value: Num) -> None:
        """Move non-basic ``var`` to ``value``, carrying the basic variables."""
        delta = value - self._val[var]
        rows, val, dirty = self._rows, self._val, self._dirty
        for basic in self._cols[var]:
            val[basic] = _num(val[basic] + rows[basic][var] * delta)
            heapq.heappush(dirty, basic)
        val[var] = value

    def _check(self) -> Optional[List[Optional[int]]]:
        """Repair every violated basic variable (Bland's rule) or conflict."""
        dirty, rows, val = self._dirty, self._rows, self._val
        lo, hi = self._lo, self._hi
        while dirty:
            basic = dirty[0]
            row = rows.get(basic)
            if row is None:
                heapq.heappop(dirty)
                continue
            value = val[basic]
            bound = lo[basic]
            if bound is not None and value < bound:
                increase = True
            else:
                bound = hi[basic]
                if bound is None or value <= bound:
                    heapq.heappop(dirty)
                    continue
                increase = False
            # Smallest non-basic variable that can move the row the right way.
            entering = None
            for var, coeff in row.items():
                if (coeff > 0) is increase:
                    limit = hi[var]
                    movable = limit is None or val[var] < limit
                else:
                    limit = lo[var]
                    movable = limit is None or val[var] > limit
                if movable and (entering is None or var < entering):
                    entering = var
            if entering is None:
                return self._row_conflict(basic, row, increase)
            heapq.heappop(dirty)
            self._pivot_and_update(basic, entering, bound)
        return None

    def _row_conflict(
        self, basic: int, row: Dict[int, Num], increase: bool
    ) -> List[Optional[int]]:
        """The bounds that pin ``basic`` outside its violated bound."""
        if increase:
            tags = [self._lo_tag[basic]]
        else:
            tags = [self._hi_tag[basic]]
        for var, coeff in row.items():
            if (coeff > 0) is increase:
                tags.append(self._hi_tag[var])
            else:
                tags.append(self._lo_tag[var])
        return tags

    def _pivot_and_update(self, basic: int, entering: int, value: Num) -> None:
        """Set ``basic`` to ``value`` by moving ``entering``, then swap them."""
        rows, cols, val, dirty = self._rows, self._cols, self._val, self._dirty
        row = rows.pop(basic)
        coeff = row.pop(entering)
        theta = _div(value - val[basic], coeff)
        val[basic] = value
        val[entering] = _num(val[entering] + theta)
        users = cols[entering]
        users.discard(basic)
        for other in users:
            val[other] = _num(val[other] + rows[other][entering] * theta)
            heapq.heappush(dirty, other)
        # entering = (basic - sum(row)) / coeff
        inverse = _div(1, coeff)
        definition = {var: _num(-c * inverse) for var, c in row.items()}
        definition[basic] = inverse
        for var in row:
            cols[var].discard(basic)
        cols[entering] = set()
        for other in users:
            other_row = rows[other]
            factor = other_row.pop(entering)
            for var, c in definition.items():
                current = other_row.get(var)
                if current is None:
                    other_row[var] = _num(factor * c)
                    cols[var].add(other)
                else:
                    current = _num(current + factor * c)
                    if current == 0:
                        del other_row[var]
                        cols[var].discard(other)
                    else:
                        other_row[var] = current
        rows[entering] = definition
        for var in definition:
            cols[var].add(entering)
        heapq.heappush(dirty, entering)

    # -- integrality ------------------------------------------------------------

    def _active(self) -> List[int]:
        """Structural variables of the asserted constraints, in index order."""
        active: Set[int] = set()
        for _, constraints, _ in self._frames:
            for constraint in constraints:
                if constraint.expr.coeffs:
                    active.update(self._bound_of(constraint)[3])
        return sorted(active)

    def _fractional(self, active: List[int]) -> Optional[int]:
        """The first active variable with a non-integral value (stored as a
        Fraction: integral values are always plain ints)."""
        val = self._val
        for var in active:
            if val[var].__class__ is not int:
                return var
        return None
