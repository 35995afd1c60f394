"""Integer difference logic (IDL) theory solver.

A conjunction of constraints of the form ``x - y <= c``, ``x <= c`` and
``-x <= c`` is satisfiable over the integers iff the corresponding
*constraint graph* has no negative-weight cycle.  The graph has one node per
variable plus a distinguished ``ZERO`` node; the constraint ``x - y <= c``
becomes an edge ``y -> x`` with weight ``c`` (reading "dist(x) may exceed
dist(y) by at most c").

Satisfiability is decided with a Bellman-Ford relaxation from a virtual
source; when a relaxation still succeeds after ``|V|`` rounds, the
predecessor chain contains a negative cycle, and the constraints labelling
its edges form a minimal inconsistent subset — exactly the explanation the
DPLL(T) loop wants.

Because all constants are integers and coefficients are ±1, rational and
integer satisfiability coincide, so the produced model is integral.

The incremental solver additionally performs *bound propagation* for the
online DPLL(T) engine: difference atoms registered up front
(:meth:`IncrementalDifferenceLogic.register_atom`) are reported as entailed
(:meth:`take_propagations`) when a shortest path through a newly inserted
edge proves their bound, turning what would be a full
conflict/analyze/backjump round trip into a unit propagation.  Explanations
(:meth:`explain_entailed`) are the literals labelling one entailing path,
restricted to the edges present when the propagation was emitted so lazily
materialised reasons stay sound for conflict analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.linear import LinearLe
from repro.utils.errors import SolverError

__all__ = [
    "DifferenceLogicSolver",
    "IncrementalDifferenceLogic",
    "TheoryResult",
    "edge_groups",
]

#: Name of the implicit zero node (also usable by callers as a variable that
#: is pinned to 0 in every model).
ZERO = "$zero"


@dataclass
class TheoryResult:
    """Outcome of a theory consistency check."""

    satisfiable: bool
    #: Variable assignment when satisfiable.
    model: Optional[Dict[str, int]] = None
    #: Indices (into the asserted constraint list) of an inconsistent subset
    #: when unsatisfiable.
    conflict: Optional[List[int]] = None


class _Edge:
    """Graph edge ``src -> dst`` of weight ``weight`` (``dst - src <= weight``).

    ``tag`` names the originating constraint: its index in the batch
    solver, its literal in the incremental one.
    """

    __slots__ = ("src", "dst", "weight", "tag")

    def __init__(self, src: str, dst: str, weight: int, tag: int) -> None:
        self.src = src
        self.dst = dst
        self.weight = weight
        self.tag = tag

    def __repr__(self) -> str:
        return f"_Edge({self.src!r}, {self.dst!r}, {self.weight}, {self.tag})"


class DifferenceLogicSolver:
    """Decides conjunctions of integer difference constraints.

    A batch solver: all constraints are asserted, :meth:`check` is called
    once, and the solver is thrown away.  Asserting is O(1); checking is
    O(V·E).  The DPLL(T) engine runs :class:`IncrementalDifferenceLogic`;
    this solver is the independent reference its tests check against.
    """

    def __init__(self) -> None:
        self._edges: List[_Edge] = []
        self._constraints: List[LinearLe] = []
        self._vars: Dict[str, None] = {ZERO: None}

    # -- constraint entry --------------------------------------------------------

    def assert_constraint(self, constraint: LinearLe) -> int:
        """Assert ``constraint``; returns its index (used in explanations)."""
        index = len(self._constraints)
        self._constraints.append(constraint)
        for edge in self._constraint_edges(constraint, index):
            self._edges.append(edge)
            self._vars.setdefault(edge.src, None)
            self._vars.setdefault(edge.dst, None)
        return index

    def assert_all(self, constraints: Sequence[LinearLe]) -> None:
        for constraint in constraints:
            self.assert_constraint(constraint)

    def _constraint_edges(self, constraint: LinearLe, tag: int) -> List[_Edge]:
        edges = _edges_of(constraint, tag)
        if edges is None:
            # 0 <= bound < 0: inconsistent by itself.  Encode as a tiny
            # negative self-loop on ZERO so the cycle detector reports it.
            return [_Edge(ZERO, ZERO, constraint.bound, tag)]
        return edges

    # -- checking ----------------------------------------------------------------

    def check(self) -> TheoryResult:
        """Check satisfiability of everything asserted so far."""
        nodes = list(self._vars)
        index_of = {name: i for i, name in enumerate(nodes)}
        n = len(nodes)
        # Virtual super-source: distance 0 to every node.  Implemented by
        # initialising every distance to 0, which is equivalent to one
        # relaxation round from the source.
        dist = [0] * n
        pred_edge: List[Optional[_Edge]] = [None] * n

        edges = self._edges
        updated_node: Optional[int] = None
        # With every distance initialised to 0 (implicit super-source round),
        # shortest simple paths need at most ``n`` further relaxation rounds;
        # an update in round ``n + 1`` therefore witnesses a negative cycle.
        for _ in range(n + 1):
            updated_node = None
            for edge in edges:
                u = index_of[edge.src]
                v = index_of[edge.dst]
                if dist[u] + edge.weight < dist[v]:
                    dist[v] = dist[u] + edge.weight
                    pred_edge[v] = edge
                    updated_node = v
            if updated_node is None:
                break

        if updated_node is not None:
            cycle = self._extract_cycle(updated_node, nodes, index_of, pred_edge)
            return TheoryResult(satisfiable=False, conflict=sorted(set(cycle)))

        # Satisfiable: shift so that ZERO maps to exactly 0.
        shift = dist[index_of[ZERO]]
        model = {
            name: dist[i] - shift for i, name in enumerate(nodes) if name != ZERO
        }
        return TheoryResult(satisfiable=True, model=model)

    def _extract_cycle(
        self,
        start: int,
        nodes: List[str],
        index_of: Dict[str, int],
        pred_edge: List[Optional[_Edge]],
    ) -> List[int]:
        """Walk predecessor edges from a node relaxed in round |V| to find a cycle."""
        # Move onto the cycle: after n steps we are guaranteed to be on it.
        node = start
        for _ in range(len(nodes)):
            edge = pred_edge[node]
            assert edge is not None
            node = index_of[edge.src]
        # Collect the cycle.
        cycle_tags: List[int] = []
        cursor = node
        while True:
            edge = pred_edge[cursor]
            assert edge is not None
            cycle_tags.append(edge.tag)
            cursor = index_of[edge.src]
            if cursor == node:
                break
        return cycle_tags

    # -- convenience -------------------------------------------------------------

    @staticmethod
    def is_applicable(constraints: Sequence[LinearLe]) -> bool:
        """True if every constraint is in the difference fragment."""
        return all(c.is_difference for c in constraints)

    def __len__(self) -> int:
        return len(self._constraints)


# ---------------------------------------------------------------------------
# Incremental difference logic for the online DPLL(T) engine
# ---------------------------------------------------------------------------


def _edges_of(constraint: LinearLe, tag: int) -> Optional[List[_Edge]]:
    """The graph edges of a difference constraint, tagged ``tag``.

    ``x - y <= c`` is one edge ``y -> x`` of weight ``c``, ``x <= c`` one
    edge ``ZERO -> x`` and ``-x <= c`` one edge ``x -> ZERO``.  A constant
    constraint has no edge: ``[]`` when it holds, ``None`` (an immediate
    conflict) when it does not.
    """
    if not constraint.is_difference:
        raise SolverError(
            f"not a difference constraint: {constraint} "
            "(use the LIA solvers for general constraints)"
        )
    coeffs = constraint.expr.coeffs
    bound = constraint.bound
    if not coeffs:
        return [] if bound >= 0 else None
    if len(coeffs) == 1:
        ((var, coeff),) = coeffs
        if coeff == 1:
            return [_Edge(ZERO, var, bound, tag)]
        return [_Edge(var, ZERO, bound, tag)]
    # Two variables with opposite unit coefficients: pos - neg <= bound.
    (first, coeff), (second, _) = coeffs
    if coeff == 1:
        return [_Edge(second, first, bound, tag)]
    return [_Edge(first, second, bound, tag)]


def edge_groups(
    lit: int, constraints: Sequence[LinearLe]
) -> List[Optional[List[_Edge]]]:
    """Precomputed per-constraint edge groups for :meth:`assert_lit`.

    The graph edges of a constraint depend only on the constraint and the
    tagging literal, and the DPLL(T) core always asserts the same
    constraint tuple for a given literal — so callers on the hot path
    memoise this per ``(atom, phase)`` and hand the result to
    :meth:`IncrementalDifferenceLogic.assert_lit` via its ``edges``
    parameter.  (A registered atom's groups are the phase edges
    :meth:`~IncrementalDifferenceLogic.register_atom` returns.)  Reusing
    the same :class:`_Edge` objects across assertions is safe: the undo
    stack removes edges by LIFO identity, and a literal is never on the
    trail twice.
    """
    return [_edges_of(constraint, lit) for constraint in constraints]


class _IdlFrame:
    """Undo record of one ``assert_lit`` call."""

    __slots__ = ("lit", "constraints", "edges_before", "old_pot")

    def __init__(
        self, lit: int, constraints: Tuple[LinearLe, ...], edges_before: int
    ) -> None:
        self.lit = lit
        self.constraints = constraints
        self.edges_before = edges_before
        #: Potentials changed by this frame's relaxations: node -> value
        #: before.  Allocated lazily — most assertions never violate an edge.
        self.old_pot: Optional[Dict[str, int]] = None


class IncrementalDifferenceLogic:
    """Trail-synchronised IDL: ``assert_lit`` / ``retract_to`` / ``explain``.

    The solver maintains a *feasible potential function* ``pot`` (a
    satisfying assignment): every edge ``u -> v`` of weight ``w`` satisfies
    ``pot(u) + w >= pot(v)``.  Asserting a constraint adds its edge(s) and,
    when an edge is violated, repairs the potentials with an incremental
    Bellman-Ford relaxation seeded at the edge's target (Cotton–Maler
    style).  If the relaxation propagates back to the *source* of the new
    edge, a negative cycle — necessarily through the new edge — exists; the
    predecessor chain of the relaxation names its edges, so the conflict
    explanation is exactly the constraint literals on one negative cycle
    (minimal, unlike the batch solver's full re-run).

    Every assertion pushes an undo frame recording the potentials it
    changed; ``retract_to(n)`` pops frames until only the first ``n``
    assertions remain, restoring the exact previous state.  This is what
    lets the online engine keep the theory warm across SAT backjumps
    instead of rebuilding the solver per candidate model.

    With ``propagate=True`` (the default) and difference atoms registered
    via :meth:`register_atom`, every assertion that *tightens* the potential
    function additionally runs a Cotton–Maler-style entailment pass over
    each edge it inserted: one forward and one backward Dijkstra over the
    *reduced* edge weights (non-negative, because the potential function is
    feasible) give the shortest paths through that edge, and any
    registered, unasserted atom whose bound those paths prove is queued for
    :meth:`take_propagations`.  Propagation is sound but deliberately
    incomplete: an edge that leaves the potentials untouched runs no pass,
    even when it closes a new entailing path (see :meth:`assert_lit`).
    """

    def __init__(self, propagate: bool = True) -> None:
        self._pot: Dict[str, int] = {ZERO: 0}
        self._out: Dict[str, List[_Edge]] = {ZERO: []}
        self._in: Dict[str, List[_Edge]] = {ZERO: []}
        self._edges: List[_Edge] = []
        self._frames: List[_IdlFrame] = []
        # Bound propagation state.
        self._propagate_enabled = propagate
        #: var -> (positive, negative) phase edge, each tagged with its
        #: literal: the phase holds iff dist(src -> dst) <= weight.
        self._atoms: Dict[int, Tuple[_Edge, _Edge]] = {}
        #: Every phase edge in registration order (the scan branch).
        self._phases: List[_Edge] = []
        #: src -> dst -> phase edges: the propagation pass iterates reached
        #: node pairs when that is cheaper than scanning every phase.
        self._atom_index: Dict[str, Dict[str, List[_Edge]]] = {}
        self._max_bound = 0  # max phase bound: caps the propagation search
        self._asserted_vars: set = set()
        #: Entailed-but-unreported literals with the edge-count basis their
        #: explanation is restricted to.
        self._pending: List[Tuple[int, int]] = []
        self._pending_lits: set = set()
        #: Reported literals -> explanation basis (pruned on retraction).
        self._prop_basis: Dict[int, int] = {}

    # -- trail ------------------------------------------------------------------

    @property
    def num_asserted(self) -> int:
        """Number of live assertions (the theory trail height)."""
        return len(self._frames)

    @property
    def assertions(self) -> List[Tuple[int, Tuple[LinearLe, ...]]]:
        """The live ``(lit, constraints)`` trail, oldest first."""
        return [(frame.lit, frame.constraints) for frame in self._frames]

    def assert_lit(
        self,
        lit: int,
        constraints: Sequence[LinearLe],
        edges: Optional[Sequence[Optional[List[_Edge]]]] = None,
    ) -> Optional[List[int]]:
        """Assert ``constraints`` under literal ``lit``.

        Returns ``None`` when the state stays consistent, else a minimal
        conflict: the literals labelling one negative cycle (always
        including ``lit``).  On conflict the frame remains on the trail —
        the caller is expected to retract past it while backjumping.

        ``edges`` optionally supplies the per-constraint edge groups
        precomputed by :func:`edge_groups` (hot callers memoise them per
        atom phase); when absent they are derived here.
        """
        frame = _IdlFrame(lit, tuple(constraints), len(self._edges))
        self._frames.append(frame)
        self._asserted_vars.add(abs(lit))
        if edges is None:
            edges = [_edges_of(c, lit) for c in frame.constraints]
        for group in edges:
            if group is None:
                return [lit]
            for edge in group:
                conflict = self._add_edge(edge, frame)
                if conflict is not None:
                    # Abort the half-finished repair: the potential function
                    # must stay feasible for the pre-frame edge set, because
                    # conflict analysis materialises lazy explanations (over
                    # exactly such edge prefixes) *before* the backjump
                    # retracts this frame.
                    if frame.old_pot:
                        for node, value in frame.old_pot.items():
                            self._pot[node] = value
                        frame.old_pot = None
                    return conflict
        if self._propagate_enabled and self._atoms and frame.old_pot:
            # The pass runs only when the frame *tightened* the potential
            # function.  That is a cost choice, not an entailment argument:
            # a non-relaxing edge can still close a new entailing path
            # (register z - x <= 5, assert z - y <= 0, then y - x <= 5 —
            # the last edge is satisfied by ``pot`` and runs no pass, so
            # the now-entailed atom goes unreported).  Propagation is thus
            # sound but incomplete; the SAT search decides such atoms.
            # Edges of literals this solver itself propagated are entailed,
            # hence never violated, so they never re-trigger the pass.
            for edge in self._edges[frame.edges_before:]:
                self._propagate_through(edge)
        return None

    def retract_to(self, count: int) -> None:
        """Retract assertions until only the first ``count`` remain."""
        while len(self._frames) > count:
            frame = self._frames.pop()
            removed = self._edges[frame.edges_before:]
            for edge in reversed(removed):
                popped = self._out[edge.src].pop()
                if popped is not edge:  # pragma: no cover - structural invariant
                    raise SolverError("IDL undo stack out of sync")
                popped_in = self._in[edge.dst].pop()
                if popped_in is not edge:  # pragma: no cover - invariant
                    raise SolverError("IDL undo stack out of sync")
            del self._edges[frame.edges_before:]
            if frame.old_pot:
                for node, value in frame.old_pot.items():
                    self._pot[node] = value
            self._asserted_vars.discard(abs(frame.lit))
        if self._pending or self._prop_basis:
            # Propagations emitted above the surviving edge prefix are gone.
            live = len(self._edges)
            if self._pending:
                self._pending = [
                    (lit, basis) for lit, basis in self._pending if basis <= live
                ]
                self._pending_lits = {lit for lit, _ in self._pending}
            if self._prop_basis:
                self._prop_basis = {
                    lit: basis
                    for lit, basis in self._prop_basis.items()
                    if basis <= live
                }

    # -- bound propagation ------------------------------------------------------

    def register_atom(
        self, var: int, positive: LinearLe
    ) -> Optional[Tuple[_Edge, _Edge]]:
        """Register SAT variable ``var`` as a difference atom for propagation.

        ``positive`` is the :class:`LinearLe` of the positive phase; the
        negative phase is its integer negation ``-e <= -b - 1``, which is
        the same graph edge reversed with weight ``-b - 1``.  Returns the
        ``(positive, negative)`` phase edges, tagged ``var`` / ``-var`` —
        callers may hand them to :meth:`assert_lit` as the phases' edge
        groups — or ``None`` (nothing registered) when ``positive`` is not a
        single graph edge (constant and non-difference constraints).
        """
        edges = _edges_of(positive, var) if positive.is_difference else None
        if not edges:
            return None
        (pos,) = edges
        neg = _Edge(pos.dst, pos.src, -pos.weight - 1, -var)
        self._atoms[var] = (pos, neg)
        for phase in (pos, neg):
            self._phases.append(phase)
            self._atom_index.setdefault(phase.src, {}).setdefault(
                phase.dst, []
            ).append(phase)
            if phase.weight > self._max_bound:
                self._max_bound = phase.weight
        return pos, neg

    @property
    def num_registered_atoms(self) -> int:
        return len(self._atoms)

    def set_propagation(self, enabled: bool) -> None:
        """Pause or resume the entailment pass at a check boundary.

        Pausing drops pending (undrained) emissions; explanations of
        literals already reported stay materialisable.  Resuming restarts
        detection from the next edge insertion — propagation is
        best-effort, so entailments that arose while paused are simply not
        reported.
        """
        self._propagate_enabled = enabled
        if not enabled:
            self._pending = []
            self._pending_lits.clear()

    def take_propagations(self) -> List[int]:
        """Drain the entailed literals discovered since the last call.

        Every returned literal is remembered (with its explanation basis)
        so :meth:`explain_entailed` can lazily produce its reason clause.
        """
        if not self._pending:
            return []
        out: List[int] = []
        for lit, basis in self._pending:
            self._prop_basis[lit] = basis
            out.append(lit)
        self._pending = []
        self._pending_lits.clear()
        return out

    def explain_entailed(self, lit: int) -> List[int]:
        """Asserted literals whose constraints entail propagated ``lit``.

        The shortest entailing path is searched over the edges that were
        present when the propagation was emitted, so the explanation only
        names literals streamed *before* ``lit`` — the trail-order contract
        lazy reasons must satisfy.
        """
        basis = self._prop_basis.get(lit)
        if basis is None:
            raise SolverError(f"literal {lit} was not propagated by IDL")
        phase = self._atoms[abs(lit)][0 if lit > 0 else 1]
        tags = self._entailing_path(
            self._edges[:basis], phase.src, phase.dst, phase.weight
        )
        return sorted(set(tags))

    def _entailing_path(
        self, edges: List[_Edge], src: str, dst: str, bound: int
    ) -> List[int]:
        """Tags of a shortest ``src ~> dst`` path of weight ``<= bound``.

        Unlike :meth:`_path_within` (Bellman-Ford, used for trail-literal
        entailment over arbitrary edge subsets), this runs Dijkstra over
        the *reduced* weights of the current potential function — feasible
        for every live edge, hence for any prefix of them — which makes
        the hot lazy-explanation path near-linear.
        """
        if src == dst and bound >= 0:
            return []
        pot = self._pot
        by_src: Dict[str, List[_Edge]] = {}
        for edge in edges:
            by_src.setdefault(edge.src, []).append(edge)
        dist: Dict[str, int] = {src: 0}
        pred: Dict[str, _Edge] = {}
        heap: List[Tuple[int, str]] = [(0, src)]
        while heap:
            base, node = heappop(heap)
            if base > dist.get(node, base):
                continue
            if node == dst:
                break
            for edge in by_src.get(node, ()):
                reduced = pot[edge.src] + edge.weight - pot[edge.dst]
                candidate = base + reduced
                if candidate < dist.get(edge.dst, candidate + 1):
                    dist[edge.dst] = candidate
                    pred[edge.dst] = edge
                    heappush(heap, (candidate, edge.dst))
        if dst not in dist:
            raise SolverError("IDL explain: literal is not entailed")
        # Undoing the potential shift recovers the real path weight.
        if dist[dst] - pot[src] + pot[dst] > bound:
            raise SolverError("IDL explain: literal is not entailed")
        tags: List[int] = []
        node = dst
        while node != src:
            edge = pred[node]
            tags.append(edge.tag)
            node = edge.src
        return tags

    def _propagate_through(self, new_edge: _Edge) -> None:
        """Queue registered atoms entailed by paths through ``new_edge``.

        Only paths using the new edge can *newly* satisfy a bound, so one
        forward Dijkstra from its target and one backward Dijkstra from its
        source (over the non-negative reduced weights induced by the
        feasible potentials) cover every fresh entailment through it.  The
        searches are kept whole: their discovery order is the emission
        order, which steers the SAT search.
        """
        pot = self._pot
        u, v = new_edge.src, new_edge.dst
        # Entailment needs rd_bwd(s) + rd_fwd(t) <= c + pot(s) - pot(t) - rw
        # for some registered phase (s, t, c); reduced distances are
        # non-negative, so an upper bound on the right-hand side caps both
        # searches (and a negative cap means no atom can possibly be
        # proven).  max(c) + pot-range is a cheap sound overestimate.
        reduced_weight = pot[u] + new_edge.weight - pot[v]
        values = pot.values()
        cap = self._max_bound + max(values) - min(values) - reduced_weight
        if cap < 0:
            return
        fwd = self._forward_distances(v, cap)
        bwd = self._backward_distances(u, cap)
        basis = len(self._edges)
        asserted = self._asserted_vars
        pending = self._pending
        pending_lits = self._pending_lits
        reported = self._prop_basis
        # The real weight of the path s ~> u -> v ~> t undoes the potential
        # shift of both halves: (bwd[s] - pot[s] + pot[u]) + w
        # + (fwd[t] - pot[v] + pot[t]) = offset(s) + fwd[t] + pot[t], with
        # offset(s) = bwd[s] - pot[s] + reduced_weight.
        #
        # The reached regions are usually tiny (relaxations are local), so
        # iterating reached (src, dst) pairs against the atom index often
        # beats scanning every registered phase; pick whichever is smaller.
        if len(fwd) * len(bwd) <= len(self._phases):
            index = self._atom_index
            for src, to_u in bwd.items():
                row = index.get(src)
                if row is None:
                    continue
                offset = to_u - pot[src] + reduced_weight
                for dst, from_v in fwd.items():
                    phases = row.get(dst)
                    if phases is None:
                        continue
                    distance = offset + from_v + pot[dst]
                    for phase in phases:
                        lit = phase.tag
                        if (
                            distance <= phase.weight
                            and abs(lit) not in asserted
                            and lit not in pending_lits
                            and lit not in reported
                        ):
                            pending.append((lit, basis))
                            pending_lits.add(lit)
        else:
            for phase in self._phases:
                src = phase.src
                to_u = bwd.get(src)
                if to_u is None:
                    continue
                dst = phase.dst
                from_v = fwd.get(dst)
                if from_v is None:
                    continue
                lit = phase.tag
                if (
                    to_u - pot[src] + reduced_weight + from_v + pot[dst]
                    <= phase.weight
                    and abs(lit) not in asserted
                    and lit not in pending_lits
                    and lit not in reported
                ):
                    pending.append((lit, basis))
                    pending_lits.add(lit)

    # The reduced weight of an edge ``a -> b`` is ``pot(a) + w - pot(b)``,
    # non-negative whenever the potential function is feasible — which it
    # is after every successful assertion.  ``cap`` prunes the searches:
    # nodes farther than it cannot contribute to any registered atom.

    def _forward_distances(self, start: str, cap: int) -> Dict[str, int]:
        """Reduced-weight shortest distances from ``start``, up to ``cap``."""
        pot = self._pot
        out = self._out
        dist: Dict[str, int] = {start: 0}
        heap: List[Tuple[int, str]] = [(0, start)]
        while heap:
            base, node = heappop(heap)
            if base > dist[node]:
                continue
            shift = base + pot[node]
            for edge in out[node]:
                step = edge.dst
                candidate = shift + edge.weight - pot[step]
                if candidate <= cap:
                    known = dist.get(step)
                    if known is None or candidate < known:
                        dist[step] = candidate
                        heappush(heap, (candidate, step))
        return dist

    def _backward_distances(self, start: str, cap: int) -> Dict[str, int]:
        """Reduced-weight shortest distances to ``start``, up to ``cap``."""
        pot = self._pot
        into = self._in
        dist: Dict[str, int] = {start: 0}
        heap: List[Tuple[int, str]] = [(0, start)]
        while heap:
            base, node = heappop(heap)
            if base > dist[node]:
                continue
            shift = base - pot[node]
            for edge in into[node]:
                step = edge.src
                candidate = shift + pot[step] + edge.weight
                if candidate <= cap:
                    known = dist.get(step)
                    if known is None or candidate < known:
                        dist[step] = candidate
                        heappush(heap, (candidate, step))
        return dist

    # -- queries ----------------------------------------------------------------

    def model(self) -> Dict[str, int]:
        """A satisfying assignment (potentials shifted so ZERO maps to 0)."""
        shift = self._pot[ZERO]
        return {
            name: value - shift
            for name, value in self._pot.items()
            if name != ZERO
        }

    def explain(self, lit: int) -> List[int]:
        """Literals of *other* assertions entailing ``lit``'s constraints.

        For every edge ``u -> v`` (weight ``w``) of ``lit``'s constraints, a
        shortest path ``u ~> v`` of weight ``<= w`` over the remaining
        edges is found; the union of the path labels is the explanation.
        Raises :class:`SolverError` when ``lit`` is not entailed.
        """
        for frame in self._frames:
            if frame.lit == lit:
                constraints = frame.constraints
                break
        else:
            raise SolverError(f"literal {lit} is not on the IDL trail")
        tags: List[int] = []
        edges = [edge for edge in self._edges if edge.tag != lit]
        for constraint in constraints:
            for edge in _edges_of(constraint, lit) or []:
                tags.extend(self._path_within(edges, edge.src, edge.dst, edge.weight))
        return sorted({tag for tag in tags if tag != lit})

    # -- internals --------------------------------------------------------------

    def _set_pot(self, node: str, value: int, frame: _IdlFrame) -> None:
        old_pot = frame.old_pot
        if old_pot is None:
            old_pot = frame.old_pot = {}
        if node not in old_pot:
            old_pot[node] = self._pot[node]
        self._pot[node] = value

    def _add_edge(self, edge: _Edge, frame: _IdlFrame) -> Optional[List[int]]:
        pot = self._pot
        src, dst = edge.src, edge.dst
        if src not in pot:
            self._add_node(src)
        if dst not in pot:
            self._add_node(dst)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self._edges.append(edge)
        if pot[src] + edge.weight >= pot[dst]:
            return None
        return self._relax(edge, frame)

    def _add_node(self, node: str) -> None:
        self._pot[node] = 0
        self._out[node] = []
        self._in[node] = []

    def _relax(self, new_edge: _Edge, frame: _IdlFrame) -> Optional[List[int]]:
        """Repair the potential function after inserting a violated edge."""
        pot = self._pot
        pred: Dict[str, _Edge] = {new_edge.dst: new_edge}
        self._set_pot(new_edge.dst, pot[new_edge.src] + new_edge.weight, frame)
        queue = deque([new_edge.dst])
        budget = (len(pot) + 2) * (len(self._edges) + 2)
        while queue:
            node = queue.popleft()
            base = pot[node]
            for edge in self._out.get(node, ()):
                budget -= 1
                if budget < 0:  # pragma: no cover - convergence backstop
                    raise SolverError("IDL relaxation failed to converge")
                if base + edge.weight < pot[edge.dst]:
                    if edge.dst == new_edge.src:
                        # Relaxation reached the new edge's source: a
                        # negative cycle through new_edge exists.
                        return self._cycle_conflict(new_edge, edge, pred)
                    self._set_pot(edge.dst, base + edge.weight, frame)
                    pred[edge.dst] = edge
                    queue.append(edge.dst)
        return None

    def _cycle_conflict(
        self, new_edge: _Edge, closing_edge: _Edge, pred: Dict[str, _Edge]
    ) -> List[int]:
        tags = {new_edge.tag, closing_edge.tag}
        node = closing_edge.src
        for _ in range(len(self._pot) + 1):
            if node == new_edge.dst:
                return sorted(tags)
            edge = pred[node]
            tags.add(edge.tag)
            node = edge.src
        raise SolverError(  # pragma: no cover - pred chains are acyclic
            "IDL conflict cycle extraction failed"
        )

    def _path_within(
        self, edges: List[_Edge], src: str, dst: str, bound: int
    ) -> List[int]:
        """Tags of a shortest path ``src ~> dst`` of weight ``<= bound``."""
        if src == dst and bound >= 0:
            return []
        dist: Dict[str, int] = {src: 0}
        pred: Dict[str, _Edge] = {}
        by_src: Dict[str, List[_Edge]] = {}
        nodes = {src, dst}
        for edge in edges:
            by_src.setdefault(edge.src, []).append(edge)
            nodes.add(edge.src)
            nodes.add(edge.dst)
        # Bellman-Ford: |V|-1 relaxation rounds suffice (no negative cycles
        # can exist among entailing edges — the state is consistent).
        for _ in range(len(nodes)):
            changed = False
            for node, base in list(dist.items()):
                for edge in by_src.get(node, ()):
                    if base + edge.weight < dist.get(edge.dst, base + edge.weight + 1):
                        dist[edge.dst] = base + edge.weight
                        pred[edge.dst] = edge
                        changed = True
            if not changed:
                break
        if dst not in dist or dist[dst] > bound:
            raise SolverError("IDL explain: literal is not entailed")
        tags: List[int] = []
        node = dst
        while node != src:
            edge = pred[node]
            tags.append(edge.tag)
            node = edge.src
        return tags

    def __len__(self) -> int:
        return len(self._frames)
