"""Theory solvers used by the DPLL(T) loop.

Each theory solver answers one question: *is a conjunction of theory
constraints satisfiable?*  If yes it produces a model (an assignment to the
theory variables); if no it produces an **explanation** — a subset of the
asserted constraints that is already inconsistent — which the DPLL(T)
engine learns as a clause for the SAT core.

The DPLL(T) engine drives the trail-backed incremental solvers
(``IncrementalDifferenceLogic``, ``IncrementalLinearInt``,
``IncrementalCongruenceClosure``).  Two batch solvers are exported too:

* :class:`repro.smt.theory.idl.DifferenceLogicSolver` — integer difference
  logic (``x - y <= c``) via Bellman–Ford negative-cycle detection.  This
  is the fragment the MCAPI trace encoding lives in.
* :class:`repro.smt.theory.euf.CongruenceClosure` — equality with
  uninterpreted functions.
"""

from repro.smt.theory.idl import DifferenceLogicSolver
from repro.smt.theory.euf import CongruenceClosure

__all__ = ["DifferenceLogicSolver", "CongruenceClosure"]
