"""The public SMT solver facade.

:class:`Solver` exposes a small, z3-like API (``add`` / ``push`` / ``pop`` /
``check`` / ``model``) over a pluggable :class:`repro.smt.backend.SolverBackend`.
The default backend is the in-tree incremental DPLL(T) engine, which keeps
its learned state alive between ``check`` calls; passing
``backend="smtlib-pipe"`` (with an external solver configured via the
``REPRO_SMT_SOLVER`` environment variable) swaps in an external SMT-LIB
solver process instead — the swap the paper performed with Yices.

The facade itself only mirrors the assertion stack so that
:meth:`assertions` and :meth:`to_smtlib` work uniformly; all solving is
delegated to the backend.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.smt.backend import SolverBackend, create_backend
from repro.smt.dpllt import CheckResult
from repro.smt.models import Model
from repro.smt.smtlib import to_smtlib
from repro.smt.terms import Not, Term
from repro.utils.errors import SolverError

__all__ = ["Solver", "CheckResult"]


class Solver:
    """An incremental SMT solver for QF_LIA + QF_UF over a pluggable backend.

    Example
    -------
    >>> from repro.smt.terms import IntVar, IntVal, Lt
    >>> s = Solver()
    >>> x, y = IntVar("x"), IntVar("y")
    >>> s.add(Lt(x, y), Lt(y, IntVal(3)), Lt(IntVal(0), x))
    >>> s.check() is CheckResult.SAT
    True
    >>> m = s.model()
    >>> 0 < m.value_of("x") < m.value_of("y") < 3
    True
    """

    def __init__(
        self,
        max_iterations: int = 200_000,
        backend: Union[str, SolverBackend, None] = None,
    ) -> None:
        self._assertions: List[Term] = []
        self._scopes: List[int] = []
        self._max_iterations = max_iterations
        self._backend = create_backend(backend, max_iterations=max_iterations)
        self._dirty = True  # True until the backend has seen a check

    @property
    def backend(self) -> SolverBackend:
        """The live solver backend."""
        return self._backend

    # -- assertion management ----------------------------------------------------

    def add(self, *terms: Term) -> None:
        """Assert one or more Boolean terms."""
        for term in terms:
            if not isinstance(term, Term):
                raise SolverError(f"Solver.add expects Terms, got {term!r}")
            if not term.sort.is_bool:
                raise SolverError(f"assertions must be Boolean, got sort {term.sort}")
        self._backend.add(*terms)
        self._assertions.extend(terms)
        self._dirty = True

    def add_all(self, terms: Iterable[Term]) -> None:
        self.add(*terms)

    def push(self) -> None:
        """Open a new assertion scope."""
        self._scopes.append(len(self._assertions))
        self._backend.push()

    def pop(self) -> None:
        """Discard all assertions added since the matching :meth:`push`."""
        if not self._scopes:
            raise SolverError("pop without matching push")
        size = self._scopes.pop()
        del self._assertions[size:]
        self._backend.pop()
        self._dirty = True

    @property
    def assertions(self) -> List[Term]:
        """The currently asserted formulas (a copy)."""
        return list(self._assertions)

    # -- solving -------------------------------------------------------------------

    def check(self, *assumptions: Term) -> CheckResult:
        """Decide satisfiability of the asserted formulas (plus assumptions).

        Assumptions are temporary assertions scoped to this single call; the
        backend keeps everything it learned for the next call.
        """
        result = self._backend.check(*assumptions)
        self._dirty = False
        return result

    def model(self) -> Model:
        """The model of the last :meth:`check`, which must have returned SAT."""
        if self._dirty:
            raise SolverError("model() requires the previous check() to be SAT")
        return self._backend.model()

    def statistics(self) -> Dict[str, int]:
        """Statistics of the most recent check (empty dict if none)."""
        return self._backend.statistics()

    # -- interop ---------------------------------------------------------------------

    def to_smtlib(self, comments: Sequence[str] = ()) -> str:
        """Render the current assertion set as an SMT-LIB v2 script."""
        return to_smtlib(self._assertions, comments=comments)

    # -- convenience -------------------------------------------------------------------

    def is_valid(self, term: Term) -> bool:
        """True if ``term`` holds in every model of the current assertions."""
        result = self.check(Not(term))
        if result is CheckResult.UNKNOWN:
            raise SolverError("validity check was inconclusive")
        return result is CheckResult.UNSAT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Solver({len(self._assertions)} assertions, "
            f"backend={getattr(self._backend, 'name', '?')})"
        )
