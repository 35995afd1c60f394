"""The DPLL(T) engine combining the CDCL SAT core with theory solvers.

The theories ride the SAT search itself through the
:class:`~repro.smt.sat.TheoryListener` hook (the online integration of
Nieuwenhuis, Oliveras & Tinelli, JACM 2006): every literal the SAT core
asserts (decision or propagation) is streamed into incremental theory
solvers (:class:`~repro.smt.theory.euf.IncrementalCongruenceClosure`,
:class:`~repro.smt.theory.idl.IncrementalDifferenceLogic`,
:class:`~repro.smt.theory.lia.IncrementalLinearInt`), which keep
trail-backed undo stacks and retract in lockstep with SAT backjumps.
Theory conflicts are caught on *partial* assignments — after a handful of
literals instead of after a complete propositional model — and their
localized explanations are learned with ordinary first-UIP analysis.
Theory-implied literals (EUF and IDL entailments) are propagated back into
the Boolean search with lazily materialised reason clauses.

The search terminates because theory conflicts are learned clauses over a
finite atom vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.smt.cnf import TseitinConverter
from repro.smt.linear import LinearLe, atom_to_constraints
from repro.smt.models import Model
from repro.smt.sat import (
    DEFAULT_REDUCE_BASE,
    DEFAULT_THEORY_BUMP,
    SatResult,
    SatSolver,
    TheoryListener,
)
from repro.smt.simplify import preprocess
from repro.smt.terms import Term, free_variables
from repro.smt.theory.euf import IncrementalCongruenceClosure
from repro.smt.theory.idl import IncrementalDifferenceLogic, edge_groups
from repro.smt.theory.lia import IncrementalLinearInt
from repro.utils.errors import SolverError

__all__ = [
    "CheckResult",
    "IncrementalDpllTEngine",
    "SmtStats",
    "TheoryCore",
]


class CheckResult(Enum):
    """Outcome of an SMT ``check``."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SmtStats:
    """Statistics of one DPLL(T) run.

    ``iterations`` is ``1 +`` the number of theory conflicts; the engine's
    ``max_iterations`` budget bounds it.
    ``theory_partial_conflicts`` counts the theory conflicts raised on
    *partial* assignments, before the SAT core holds a complete model.
    ``explanations`` / ``explanation_literals`` measure the theory
    explanations produced (conflicts and lazy propagation reasons);
    ``as_dict`` derives the average explanation size from them.
    ``theory_propagations`` counts literals the SAT core actually
    *enqueued*; the per-theory split (``theory_propagations_euf`` /
    ``theory_propagations_idl``) counts entailments the theories
    *emitted*, so the split may exceed the aggregate when an entailment
    arrives for a literal the Boolean search already assigned.
    """

    iterations: int = 0
    theory_conflicts: int = 0
    sat_clauses: int = 0
    sat_variables: int = 0
    atoms: int = 0
    arith_atoms: int = 0
    euf_atoms: int = 0
    sat_decisions: int = 0
    sat_conflicts: int = 0
    theory_propagations: int = 0
    theory_propagations_euf: int = 0
    theory_propagations_idl: int = 0
    theory_partial_conflicts: int = 0
    explanations: int = 0
    explanation_literals: int = 0
    reduce_db_rounds: int = 0
    clauses_deleted: int = 0
    max_live_learned: int = 0
    #: SAT-core arena gauges: compaction sweeps performed and the arena
    #: footprint (bytes) after the last one.
    compactions: int = 0
    arena_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        avg_explanation = (
            round(self.explanation_literals / self.explanations, 2)
            if self.explanations
            else 0
        )
        return {
            "iterations": self.iterations,
            "theory_conflicts": self.theory_conflicts,
            "sat_clauses": self.sat_clauses,
            "sat_variables": self.sat_variables,
            "atoms": self.atoms,
            "arith_atoms": self.arith_atoms,
            "euf_atoms": self.euf_atoms,
            "sat_decisions": self.sat_decisions,
            "sat_conflicts": self.sat_conflicts,
            "theory_propagations": self.theory_propagations,
            "theory_propagations_euf": self.theory_propagations_euf,
            "theory_propagations_idl": self.theory_propagations_idl,
            "theory_partial_conflicts": self.theory_partial_conflicts,
            "avg_explanation_size": avg_explanation,
            "reduce_db_rounds": self.reduce_db_rounds,
            "clauses_deleted": self.clauses_deleted,
            "max_live_learned": self.max_live_learned,
            "compactions": self.compactions,
            "arena_bytes": self.arena_bytes,
        }


_ARITH_KINDS = ("le", "lt")


def _classify_atom(atom: Term) -> str:
    """Classify an atom as ``bool``, ``arith`` or ``euf``."""
    if atom.kind == "var":
        return "bool"
    if atom.kind in _ARITH_KINDS:
        return "arith"
    if atom.kind == "eq":
        lhs = atom.args[0]
        if lhs.sort.is_int:
            return "arith"
        if lhs.sort.is_bool:
            return "bool_eq"
        return "euf"
    if atom.kind == "app":
        if not atom.args:
            return "bool"
        return "euf_pred"
    raise SolverError(f"unclassifiable atom: {atom}")


def _reject_atom_kind(kind: str) -> None:
    if kind == "euf_pred":
        raise SolverError(
            "Boolean-valued uninterpreted predicates are not supported; "
            "model them as equalities with a distinguished constant"
        )
    if kind == "bool_eq":
        raise SolverError(
            "Boolean equality atoms should have been rewritten to iff "
            "by preprocessing"
        )


def _assemble_model(
    atom_to_var: Dict[Term, int],
    bool_model: Dict[int, bool],
    variables: Dict[str, object],
    arith_model: Dict[str, int],
    euf_model: Dict[str, int],
) -> Model:
    """Combine theory models and the SAT assignment into a full model."""
    values: Dict[str, object] = {}
    # Theory values first.
    values.update(arith_model)
    values.update(euf_model)
    # Boolean variables straight from the SAT model.
    for atom, var in atom_to_var.items():
        if atom.kind == "var" and atom.sort.is_bool:
            values[atom.name] = bool_model.get(var, False)
    # Defaults for anything the formula mentions but nothing constrained.
    for name, sort in variables.items():
        if name not in values:
            values[name] = False if getattr(sort, "is_bool", False) else 0
    return Model(values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Online theory core (the TheoryListener implementation)
# ---------------------------------------------------------------------------


class TheoryCore(TheoryListener):
    """Routes the SAT trail into the incremental theory solvers.

    One core owns one :class:`IncrementalCongruenceClosure` and one
    arithmetic solver (:class:`IncrementalDifferenceLogic` until the first
    non-difference constraint arrives, then transparently migrated to
    :class:`IncrementalLinearInt`).  Every streamed literal pushes one
    frame recording both theories' trail heights, so ``on_backjump`` can
    retract them in lockstep with the SAT trail regardless of which theory
    (if any) the literal belonged to.

    The atom vocabulary — which SAT variable means which theory atom — is
    registered up front (and extended incrementally by the persistent
    engine) and survives backjumps, restarts and check boundaries; only the
    asserted trail retracts.
    """

    def __init__(self, idl_propagation: bool = True) -> None:
        self._euf = IncrementalCongruenceClosure()
        self._idl_propagation = idl_propagation
        self._arith: Union[IncrementalDifferenceLogic, IncrementalLinearInt] = (
            IncrementalDifferenceLogic(propagate=idl_propagation)
        )
        self._arith_is_lia = False
        # After migrating to LIA, the retired IDL solver is kept (frozen)
        # so the lazy explanations of its still-live propagations resolve.
        self._idl_frozen: Optional[IncrementalDifferenceLogic] = None
        self._arith_vars: Dict[int, Term] = {}
        self._euf_vars: Dict[int, Term] = {}
        # Memoised atom-to-constraint translation per atom phase.
        self._cache: Dict[Tuple[int, bool], Tuple[LinearLe, ...]] = {}
        # Memoised "does asserting this phase of this atom force the LIA
        # migration?" — the check walks every constraint of the atom, and
        # on_assert is the single hottest theory entry point.
        self._needs_lia: Dict[Tuple[int, bool], bool] = {}
        # Memoised IDL edge groups per atom phase (see idl.edge_groups):
        # the graph edges of an assertion are a pure function of the atom
        # and its polarity, and re-deriving them dominated assert time.
        # Registered atoms fill both phases at registration; any other
        # difference atom on its first assertion.
        self._idl_edges: Dict[Tuple[int, bool], list] = {}
        # One (arith_height, euf_height) frame per streamed literal.
        self._frames: List[Tuple[int, int]] = []
        # EUF trail height at the time each propagation was emitted, so a
        # lazy explanation can be restricted to the antecedent prefix.
        self._prop_basis: Dict[int, int] = {}
        self._arith_model: Dict[str, int] = {}
        self._euf_model: Dict[str, int] = {}
        #: Explanation accounting (conflicts + lazy propagation reasons).
        self.explanations = 0
        self.explanation_literals = 0
        #: Propagations emitted, split by originating theory.
        self.euf_propagations = 0
        self.idl_propagations = 0

    # -- vocabulary -------------------------------------------------------------

    def register_atom(self, atom: Term, var: int) -> None:
        """Declare SAT variable ``var`` as theory atom ``atom``."""
        kind = _classify_atom(atom)
        _reject_atom_kind(kind)
        if kind == "arith":
            self._arith_vars[var] = atom
            if self._idl_propagation and not self._arith_is_lia:
                self._register_idl_atom(var)
        elif kind == "euf":
            self._euf_vars[var] = atom
            self._euf.register_atom(var, atom.args[0], atom.args[1])

    def set_idl_propagation(self, enabled: bool) -> None:
        """Pause/resume IDL bound propagation at a check boundary.

        Pausing only stops *new* emissions (already-reported literals keep
        their lazily materialisable explanations), so it is always sound.
        Resuming re-enables detection for the atoms registered while the
        lane was on — a core constructed with ``idl_propagation=False``
        never registered any, so the toggle is a no-op there.
        """
        self._idl_propagation = enabled
        if isinstance(self._arith, IncrementalDifferenceLogic):
            self._arith.set_propagation(enabled)

    def _register_idl_atom(self, var: int) -> None:
        """Register ``var`` for IDL bound propagation when both phases fit.

        Non-difference atoms (which will migrate the lane to LIA the moment
        they are asserted) and atoms whose negation is not a conjunctive
        constraint simply stay unregistered — propagation is an
        optimisation, never a requirement.  Only the positive phase is
        linearised: the solver derives both phase edges from it, and they
        become the phases' memoised edge groups, so asserting a registered
        atom never translates it again.  The negative ``LinearLe`` itself
        is built only if that phase is asserted (``_constraints_for``).
        """
        try:
            positive = self._constraints_for(var, True)
        except SolverError:
            return
        if len(positive) != 1:
            return
        assert isinstance(self._arith, IncrementalDifferenceLogic)
        edges = self._arith.register_atom(var, positive[0])
        if edges is not None:
            self._idl_edges[(var, True)] = [[edges[0]]]
            self._idl_edges[(var, False)] = [[edges[1]]]

    @property
    def num_arith_atoms(self) -> int:
        return len(self._arith_vars)

    @property
    def num_euf_atoms(self) -> int:
        return len(self._euf_vars)

    @property
    def arith_model(self) -> Dict[str, int]:
        """Arithmetic model captured by the last successful final check."""
        return self._arith_model

    @property
    def euf_model(self) -> Dict[str, int]:
        """EUF model captured by the last successful final check."""
        return self._euf_model

    def _constraints_for(self, var: int, positive: bool) -> Tuple[LinearLe, ...]:
        key = (var, positive)
        cached = self._cache.get(key)
        if cached is None:
            atom = self._arith_vars[var]
            if positive or atom.kind not in _ARITH_KINDS:
                cached = tuple(atom_to_constraints(atom, positive))
            else:
                # The atom is linearised once: for ``<=``/``<`` the negative
                # phase is exactly the negation of the positive constraint.
                (constraint,) = self._constraints_for(var, True)
                cached = (constraint.negated(),)
            self._cache[key] = cached
        return cached

    def _migrate_to_lia(self) -> None:
        """Load the IDL trail into a LIA solver (first non-difference atom).

        The trail is loaded as bounds only; the assertion of the migrating
        literal, which follows at once, runs the one feasibility check.
        """
        lia = IncrementalLinearInt()
        for lit, constraints in self._arith.assertions:
            conflict = lia.assert_lit(lit, constraints, check=False)
            if conflict is not None:  # pragma: no cover - IDL-feasible prefix
                raise SolverError("LIA migration of a consistent IDL trail failed")
        # Freeze the IDL solver for lazy explanations of propagations it
        # already reported: a live propagated literal's explanation prefix
        # is exactly the frozen solver's edge prefix, which never mutates
        # again.  Undrained pending entailments are dropped — propagation
        # is best-effort and the LIA lane has no propagation of its own.
        assert isinstance(self._arith, IncrementalDifferenceLogic)
        self._arith.take_propagations()
        self._idl_frozen = self._arith
        self._arith = lia
        self._arith_is_lia = True

    # -- TheoryListener ---------------------------------------------------------

    def on_assert(self, lit: int) -> Optional[Sequence[int]]:
        var = abs(lit)
        self._frames.append((self._arith.num_asserted, self._euf.num_asserted))
        conflict: Optional[List[int]] = None
        if var in self._arith_vars:
            positive = lit > 0
            key = (var, positive)
            constraints = self._constraints_for(var, positive)
            if not self._arith_is_lia:
                needs_lia = self._needs_lia.get(key)
                if needs_lia is None:
                    needs_lia = any(not c.is_difference for c in constraints)
                    self._needs_lia[key] = needs_lia
                if needs_lia:
                    self._migrate_to_lia()
            if self._arith_is_lia:
                conflict = self._arith.assert_lit(lit, constraints)
            else:
                edges = self._idl_edges.get(key)
                if edges is None:
                    edges = edge_groups(lit, constraints)
                    self._idl_edges[key] = edges
                conflict = self._arith.assert_lit(lit, constraints, edges)
        elif var in self._euf_vars:
            atom = self._euf_vars[var]
            conflict = self._euf.assert_lit(lit, atom.args[0], atom.args[1], lit > 0)
        if conflict is not None:
            self._record_explanation(conflict)
        return conflict

    def propagations(self) -> Sequence[int]:
        pending = self._euf.entailed()
        if pending:
            basis = self._euf.num_asserted
            for lit in pending:
                if lit not in self._prop_basis:
                    self.euf_propagations += 1
                self._prop_basis[lit] = basis
        if self._idl_propagation and not self._arith_is_lia:
            assert isinstance(self._arith, IncrementalDifferenceLogic)
            idl_pending = self._arith.take_propagations()
            if idl_pending:
                self.idl_propagations += len(idl_pending)
                pending = list(pending) + idl_pending
        return pending

    def explain(self, lit: int) -> Sequence[int]:
        if abs(lit) in self._arith_vars:
            solver = self._idl_frozen if self._arith_is_lia else self._arith
            assert isinstance(solver, IncrementalDifferenceLogic)
            explanation: Sequence[int] = solver.explain_entailed(lit)
        else:
            explanation = self._euf.explain(lit, limit=self._prop_basis.get(lit))
        self._record_explanation(explanation)
        return explanation

    def on_backjump(self, kept: int) -> None:
        if kept >= len(self._frames):
            return
        arith_height, euf_height = self._frames[kept]
        del self._frames[kept:]
        self._arith.retract_to(arith_height)
        self._euf.retract_to(euf_height)
        if self._prop_basis:
            self._prop_basis = {
                lit: basis
                for lit, basis in self._prop_basis.items()
                if basis <= euf_height
            }

    def on_final_check(self) -> Optional[Sequence[int]]:
        if self._arith_is_lia:
            result = self._arith.final_check()
            if not result.satisfiable:
                conflict = sorted(set(result.conflict or []))
                self._record_explanation(conflict)
                return conflict
            self._arith_model = result.model or {}
        else:
            self._arith_model = self._arith.model()
        self._euf_model = self._euf.model()
        return None

    # -- internals --------------------------------------------------------------

    def _record_explanation(self, lits: Sequence[int]) -> None:
        self.explanations += 1
        self.explanation_literals += len(lits)


class IncrementalDpllTEngine:
    """A persistent DPLL(T) engine with add/push/pop and assumption checks.

    The engine keeps all solver state alive across ``check`` calls:

    * one :class:`~repro.smt.cnf.TseitinConverter` — atoms keep their
      propositional variables and gate definitions are shared, so asserting
      the same subformula twice costs nothing;
    * one :class:`~repro.smt.sat.SatSolver` — learned clauses, variable
      activities and saved phases survive between checks;
    * one :class:`TheoryCore` — the incremental theory solvers and their
      atom vocabulary persist alongside the SAT core; clauses learned from
      theory conflicts speak about the atom vocabulary, not a particular
      assertion set, so they remain valid and persist too.

    Scopes are implemented with *selector literals* in the MiniSat
    tradition: an assertion added after a :meth:`push` is encoded as
    ``selector -> assertion`` and every :meth:`check` assumes the selectors
    of the open scopes; :meth:`pop` retires a selector by asserting its
    negation, permanently satisfying the scope's clauses.  Per-call
    assumptions are Tseitin-encoded to literals and assumed the same way.
    This is what makes blocking-clause enumeration and reachability probes
    cheap: the clause database is never rebuilt, only extended.
    """

    def __init__(
        self,
        max_iterations: int = 200_000,
        reduce_db: bool = True,
        reduce_base: int = DEFAULT_REDUCE_BASE,
        theory_bump: float = DEFAULT_THEORY_BUMP,
        idl_propagation: bool = True,
    ) -> None:
        self._converter = TseitinConverter()
        self._sat = SatSolver(
            reduce_db=reduce_db,
            reduce_base=reduce_base,
            theory_bump=theory_bump,
        )
        self._max_iterations = max_iterations
        self._deadline: Optional[float] = None
        self._clauses_fed = 0
        self._atoms_seen = 0
        self._variables: Dict[str, object] = {}
        self._selectors: List[int] = []
        self._core = TheoryCore(idl_propagation=idl_propagation)
        self._sat.set_theory(self._core)
        self._model: Optional[Model] = None
        self._last_result: Optional[CheckResult] = None
        #: Statistics of the most recent :meth:`check`.
        self.stats = SmtStats()
        #: Number of ``check`` calls served by this engine instance.
        self.total_checks = 0

    # ------------------------------------------------------------------ assertions

    def add(self, term: Term) -> None:
        """Assert ``term`` in the current scope."""
        self.add_all([term])

    def add_all(self, terms: Sequence[Term]) -> None:
        """Assert every term of ``terms`` in the current scope, as one batch.

        The terms are preprocessed and encoded in order and then loaded into
        the SAT core and the theories with one flush, which leaves exactly
        the state that adding them one at a time would.
        """
        terms = [preprocess(term) for term in terms]
        for term in terms:
            self._variables.update(free_variables(term))
        self._invalidate()
        for term in terms:
            if self._selectors:
                self._encode_guarded(term, self._selectors[-1])
            else:
                self._converter.encode_assertion(term)
        self._flush()

    def push(self) -> None:
        """Open a scope: later assertions hold only while the scope is open.

        Opening a scope adds no constraints, so the model of the last check
        (if any) stays valid and available.
        """
        self._selectors.append(self._converter.fresh_var())

    def pop(self) -> None:
        """Close the innermost scope, retiring its assertions."""
        if not self._selectors:
            raise SolverError("pop without matching push")
        selector = self._selectors.pop()
        self._sat.ensure_vars(self._converter.result.num_vars)
        self._sat.add_clause([-selector])
        self._invalidate()

    @property
    def scope_depth(self) -> int:
        """Number of currently open scopes."""
        return len(self._selectors)

    # ------------------------------------------------------------------ solving

    def check(self, *assumptions: Term) -> CheckResult:
        """Decide satisfiability of the live assertions plus ``assumptions``.

        Assumptions are scoped to this single call; nothing learned from a
        previous call is forgotten.
        """
        self._model = None
        self.total_checks += 1
        assumption_lits: List[int] = []
        for term in assumptions:
            term = preprocess(term)
            self._variables.update(free_variables(term))
            assumption_lits.append(self._converter.literal(term))
        self._flush()

        stats = SmtStats()
        self.stats = stats
        stats.sat_clauses = self._sat.num_clauses
        stats.sat_variables = self._sat.num_vars
        stats.atoms = self._atoms_seen
        stats.arith_atoms = self._core.num_arith_atoms
        stats.euf_atoms = self._core.num_euf_atoms

        sat_assumptions = list(self._selectors) + assumption_lits
        sat, core = self._sat, self._core
        # The SAT core's counters are engine-lifetime; report per-check deltas.
        base_decisions = sat.stats.decisions
        base_conflicts = sat.stats.conflicts
        base_theory_conflicts = sat.stats.theory_conflicts
        base_theory_propagations = sat.stats.theory_propagations
        base_partial = sat.stats.theory_partial_conflicts
        base_explanations = core.explanations
        base_explanation_lits = core.explanation_literals
        base_euf_props = core.euf_propagations
        base_idl_props = core.idl_propagations
        base_reduce_rounds = sat.stats.reduce_db_rounds
        base_deleted = sat.stats.clauses_deleted
        try:
            if self._max_iterations is not None and self._max_iterations < 1:
                return self._finish(CheckResult.UNKNOWN)
            # The iteration budget bounds *theory* conflicts; purely Boolean
            # search stays unbudgeted.
            result = sat.solve(
                sat_assumptions,
                theory_conflict_limit=self._max_iterations,
                deadline=self._deadline,
            )
            if result is SatResult.UNSAT:
                return self._finish(CheckResult.UNSAT)
            if result is SatResult.UNKNOWN:
                return self._finish(CheckResult.UNKNOWN)
            self._model = _assemble_model(
                self._converter.result.atom_to_var,
                sat.model(),
                self._variables,
                core.arith_model,
                core.euf_model,
            )
            return self._finish(CheckResult.SAT)
        finally:
            stats.sat_decisions = sat.stats.decisions - base_decisions
            stats.sat_conflicts = sat.stats.conflicts - base_conflicts
            stats.theory_conflicts = (
                sat.stats.theory_conflicts - base_theory_conflicts
            )
            stats.theory_propagations = (
                sat.stats.theory_propagations - base_theory_propagations
            )
            stats.theory_partial_conflicts = (
                sat.stats.theory_partial_conflicts - base_partial
            )
            stats.iterations = 1 + stats.theory_conflicts
            stats.explanations = core.explanations - base_explanations
            stats.explanation_literals = (
                core.explanation_literals - base_explanation_lits
            )
            stats.theory_propagations_euf = core.euf_propagations - base_euf_props
            stats.theory_propagations_idl = core.idl_propagations - base_idl_props
            stats.reduce_db_rounds = (
                sat.stats.reduce_db_rounds - base_reduce_rounds
            )
            stats.clauses_deleted = sat.stats.clauses_deleted - base_deleted
            # A gauge, not a counter: the engine-lifetime peak is the number
            # that shows whether the live clause set stays bounded.
            stats.max_live_learned = sat.stats.max_live_learned
            stats.compactions = sat.stats.compactions
            stats.arena_bytes = sat.stats.arena_bytes

    def model(self) -> Model:
        """The model of the last :meth:`check`, which must have returned SAT."""
        if self._model is None:
            raise SolverError("model() requires the previous check() to be SAT")
        return self._model

    def set_idl_propagation(self, enabled: bool) -> None:
        """Pause/resume IDL bound propagation between checks.

        Model-enumeration loops toggle the lane off: streaming SAT models
        rarely profits from bound propagation, while the per-assertion
        entailment pass still costs two Dijkstras.
        """
        self._core.set_idl_propagation(enabled)

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Bound every later :meth:`check` by a ``time.monotonic`` instant.

        A check that runs past the deadline returns
        :data:`CheckResult.UNKNOWN`; ``None`` clears the bound.  The
        deadline is a per-check *query* budget — learned clauses and theory
        state from a timed-out check survive, so a retry with a larger
        budget starts warm.
        """
        self._deadline = deadline

    @property
    def budget_exhausted(self) -> bool:
        """True when the last check stopped on the ``max_iterations`` budget."""
        return (
            self._max_iterations is not None
            and self.stats.iterations > self._max_iterations
        )

    @property
    def last_result(self) -> Optional[CheckResult]:
        """Outcome of the most recent check (None after add/push/pop)."""
        return self._last_result

    # ------------------------------------------------------------------ internals

    def _finish(self, result: CheckResult) -> CheckResult:
        self._last_result = result
        return result

    def _invalidate(self) -> None:
        self._model = None
        self._last_result = None

    def _encode_guarded(self, term: Term, selector: int) -> None:
        """Encode ``selector -> term``, splitting top-level conjunctions."""
        if term.is_true:
            return
        if term.kind == "and":
            for child in term.args:
                self._encode_guarded(child, selector)
            return
        self._converter.add_raw_clause([-selector, self._converter.literal(term)])

    def _flush(self) -> None:
        """Feed clauses and atoms created since the last flush to the SAT core."""
        result = self._converter.result
        self._sat.ensure_vars(result.num_vars)
        clauses = result.clauses
        if self._clauses_fed < len(clauses):
            self._sat.add_clauses(clauses[self._clauses_fed :])
            self._clauses_fed = len(clauses)
        atom_to_var = result.atom_to_var
        if len(atom_to_var) > self._atoms_seen:
            # Advance the counter per atom: if registration rejects one (e.g.
            # an unsupported Boolean predicate), atoms after it must not be
            # silently skipped — the next flush retries and re-raises.
            for atom, var in islice(atom_to_var.items(), self._atoms_seen, None):
                self._core.register_atom(atom, var)
                self._atoms_seen += 1
