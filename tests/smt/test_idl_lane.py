"""The IDL entailment lane against its pre-refactoring implementation.

The reference below keeps the earlier lane verbatim: ``register_atom``
took both phase constraints and translated each through ``atom_edge``,
the atom index was keyed by ``(src, dst)`` tuples, the scan branch walked
``(pos, neg)`` pairs, and one ``_dijkstra`` served both directions.  The
entailment pass decides the order in which literals are emitted, and that
order steers the SAT search, so the current solver must reproduce the
reference *exactly*: on seeded random streams of registrations,
assertions (conflicts included), retractions, drains and explanations,
both emit the same sequences with the same bases, explain alike and keep
the same potential function.
"""

import heapq
import random
from typing import Dict, List, Optional, Tuple

from hypothesis import given, strategies as st

from repro.smt.linear import LinearExpr, LinearLe
from repro.smt.theory.idl import IncrementalDifferenceLogic, _Edge, _edges_of
from repro.utils.errors import SolverError


def atom_edge(constraint: LinearLe) -> Optional[Tuple[str, str, int]]:
    """The single ``(src, dst, weight)`` edge of a difference constraint.

    Returns ``None`` when the constraint does not reduce to exactly one
    graph edge (constant constraints and non-difference shapes) — such
    atoms are not eligible for bound propagation.
    """
    if not constraint.is_difference:
        return None
    edges = _edges_of(constraint, 0)
    if edges is None or len(edges) != 1:
        return None
    edge = edges[0]
    return (edge.src, edge.dst, edge.weight)


class ReferenceIdl(IncrementalDifferenceLogic):
    """The earlier registration and entailment pass, kept as the oracle."""

    def __init__(self, propagate: bool = True) -> None:
        super().__init__(propagate)
        self._atoms = {}
        self._atom_index = {}
        self._atom_phases = 0

    def register_atom(
        self,
        var: int,
        positive: Optional[LinearLe],
        negative: Optional[LinearLe],
    ) -> bool:
        """Register SAT variable ``var`` as a difference atom for propagation.

        ``positive`` / ``negative`` are the :class:`LinearLe` constraints of
        the two phases.  Returns ``True`` when at least one phase reduces to
        a single graph edge and the atom was registered.
        """
        pos = atom_edge(positive) if positive is not None else None
        neg = atom_edge(negative) if negative is not None else None
        if pos is None and neg is None:
            return False
        self._atoms[var] = (pos, neg)
        for lit, info in ((var, pos), (-var, neg)):
            if info is not None:
                src, dst, bound = info
                self._atom_index.setdefault((src, dst), []).append((lit, bound))
                if bound > self._max_bound:
                    self._max_bound = bound
                self._atom_phases += 1
        return True

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
        phases = self._atoms.get(abs(lit))
        info = None if phases is None else (phases[0] if lit > 0 else phases[1])
        if info is None:  # pragma: no cover - basis implies registration
            raise SolverError(f"literal {lit} is not a registered IDL atom")
        src, dst, bound = info
        tags = self._entailing_path(self._edges[:basis], src, dst, bound)
        return sorted(set(tags))

    def _propagate_through(self, new_edge: _Edge) -> None:
        """Queue registered atoms entailed by paths through ``new_edge``.

        Only paths using the new edge can *newly* satisfy a bound, so one
        forward Dijkstra from its target and one backward Dijkstra from its
        source (over the non-negative reduced weights induced by the
        feasible potentials) cover every fresh entailment.
        """
        pot = self._pot
        u, v, w = new_edge.src, new_edge.dst, new_edge.weight
        # Entailment needs rd_bwd(s) + rd_fwd(t) <= c + pot(s) - pot(t) - rw
        # for some registered phase (s, t, c); reduced distances are
        # non-negative, so an upper bound on the right-hand side caps both
        # searches (and a negative cap means no atom can possibly be
        # proven).  max(c) + pot-range is a cheap sound overestimate.
        reduced_weight = pot[u] + w - pot[v]
        values = pot.values()
        cap = self._max_bound + max(values) - min(values) - reduced_weight
        if cap < 0:
            return
        fwd = self._dijkstra(new_edge.dst, backward=False, cap=cap)
        bwd = self._dijkstra(new_edge.src, backward=True, cap=cap)
        basis = len(self._edges)
        # The reached regions are usually tiny (relaxations are local), so
        # iterating reached (src, dst) pairs against the atom index often
        # beats scanning every registered atom; pick whichever is smaller.
        candidates: List[Tuple[int, str, str, int]] = []
        if len(fwd) * len(bwd) <= self._atom_phases:
            index = self._atom_index
            for src in bwd:
                for dst in fwd:
                    for lit, bound in index.get((src, dst), ()):
                        candidates.append((lit, src, dst, bound))
        else:
            for var, (pos, neg) in self._atoms.items():
                for lit, info in ((var, pos), (-var, neg)):
                    if info is not None:
                        candidates.append((lit, info[0], info[1], info[2]))
        for lit, src, dst, bound in candidates:
            if abs(lit) in self._asserted_vars:
                continue
            if lit in self._pending_lits or lit in self._prop_basis:
                continue
            reduced_to_u = bwd.get(src)
            reduced_from_v = fwd.get(dst)
            if reduced_to_u is None or reduced_from_v is None:
                continue
            # Undo the potential shift: real = reduced - pot(a) + pot(b).
            distance = (
                (reduced_to_u - pot[src] + pot[u])
                + w
                + (reduced_from_v - pot[v] + pot[dst])
            )
            if distance <= bound:
                self._pending.append((lit, basis))
                self._pending_lits.add(lit)

    def _dijkstra(
        self, start: str, backward: bool, cap: Optional[int] = None
    ) -> Dict[str, int]:
        """Reduced-weight shortest distances from (or to) ``start``.

        The reduced weight of an edge ``a -> b`` is ``pot(a) + w - pot(b)``,
        non-negative whenever the potential function is feasible — which it
        is after every successful assertion.  ``cap`` prunes the search:
        nodes farther than it cannot contribute to any registered atom.
        """
        pot = self._pot
        adjacency = self._in if backward else self._out
        dist: Dict[str, int] = {start: 0}
        heap: List[Tuple[int, str]] = [(0, start)]
        while heap:
            base, node = heapq.heappop(heap)
            if base > dist.get(node, base):
                continue
            for edge in adjacency.get(node, ()):
                reduced = pot[edge.src] + edge.weight - pot[edge.dst]
                step = edge.src if backward else edge.dst
                candidate = base + reduced
                if cap is not None and candidate > cap:
                    continue
                if candidate < dist.get(step, candidate + 1):
                    dist[step] = candidate
                    heapq.heappush(heap, (candidate, step))
        return dist


def _shape(edge):
    return (edge.src, edge.dst, edge.weight, edge.tag)


def _constraint(coeffs, bound):
    return LinearLe(LinearExpr.from_dict(coeffs), bound)


def _diff(x, y, bound):
    """Constraint ``x - y <= bound``."""
    return _constraint({x: 1, y: -1}, bound)


def _random_constraint(rng, names):
    """Mostly two-variable differences, some bounds, a few constants."""
    roll = rng.random()
    if roll < 0.7:
        x, y = rng.sample(names, 2)
        coeffs = {x: 1, y: -1}
    elif roll < 0.95:
        coeffs = {rng.choice(names): rng.choice((1, -1))}
    else:
        coeffs = {}
    return _constraint(coeffs, rng.randint(-4, 5))


def _explanations(solver, lits):
    out = []
    for lit in lits:
        try:
            out.append(solver.explain_entailed(lit))
        except SolverError as exc:
            out.append(str(exc))
    return out


def _assert_same_state(new, ref):
    assert list(new._pot.items()) == list(ref._pot.items())
    assert new._pending == ref._pending
    assert new._pending_lits == ref._pending_lits
    assert list(new._prop_basis.items()) == list(ref._prop_basis.items())
    assert [_shape(e) for e in new._edges] == [_shape(e) for e in ref._edges]


def _run_stream(seed, solver_class=IncrementalDifferenceLogic):
    """Drive both solvers through one random stream.

    Returns the number of emitted literals and the solver under test.

    Registered atoms are asserted the way ``TheoryCore`` asserts them —
    the new solver gets the phase edges ``register_atom`` returned, the
    reference re-derives them from the constraint — and literals already
    propagated are asserted preferentially, as unit propagation would.
    """
    rng = random.Random(seed)
    names = list("abcdefghij"[: rng.randint(3, 10)])
    new, ref = solver_class(), ReferenceIdl()
    atoms: Dict[int, Tuple[LinearLe, Tuple[_Edge, _Edge]]] = {}
    # Few atoms over many nodes favour the scan branch, many the index.
    num_atoms = rng.randint(1, 4) if rng.random() < 0.3 else rng.randint(5, 40)
    for var in range(1000, 1000 + num_atoms):
        if rng.random() < 0.05:
            positive = _constraint({names[0]: 2, names[1]: -1}, 0)
        else:
            positive = _random_constraint(rng, names)
        edges = new.register_atom(var, positive)
        assert ref.register_atom(var, positive, positive.negated()) == (
            edges is not None
        )
        if edges is not None:
            atoms[var] = (positive, edges)
    trail: List[int] = []
    reported: List[int] = []
    next_lit = 1
    emitted = 0
    for _ in range(rng.randint(20, 120)):
        roll = rng.random()
        if roll < 0.12 and trail:
            keep = rng.randint(0, len(trail) - 1)
            new.retract_to(keep)
            ref.retract_to(keep)
            del trail[keep:]
        elif roll < 0.15:
            enabled = rng.random() < 0.7
            new.set_propagation(enabled)
            ref.set_propagation(enabled)
        else:
            on_trail = {abs(lit) for lit in trail}
            open_reported = [lit for lit in reported if abs(lit) not in on_trail]
            open_atoms = [var for var in atoms if var not in on_trail]
            if open_reported and rng.random() < 0.5:
                lit = rng.choice(open_reported)
            elif open_atoms and rng.random() < 0.5:
                lit = rng.choice(open_atoms) * rng.choice((1, -1))
            else:
                lit = None
            if lit is not None:
                positive, (pos, neg) = atoms[abs(lit)]
                constraints = (positive if lit > 0 else positive.negated(),)
                groups: Optional[list] = [[pos if lit > 0 else neg]]
            else:
                lit = next_lit
                next_lit += 1
                constraints = tuple(
                    _random_constraint(rng, names)
                    for _ in range(1 if rng.random() < 0.85 else 2)
                )
                groups = None
            conflict = new.assert_lit(lit, constraints, groups)
            assert conflict == ref.assert_lit(lit, constraints)
            trail.append(lit)
            if conflict is not None:
                # Conflict analysis explains live propagations before the
                # backjump retracts the conflicting frame.
                assert _explanations(new, reported) == _explanations(ref, reported)
                new.retract_to(len(trail) - 1)
                ref.retract_to(len(trail) - 1)
                trail.pop()
        if rng.random() < 0.7:
            props = new.take_propagations()
            assert props == ref.take_propagations()
            assert _explanations(new, props) == _explanations(ref, props)
            emitted += len(props)
            reported.extend(props)
        _assert_same_state(new, ref)
    assert _explanations(new, reported) == _explanations(ref, reported)
    return emitted, new


class TestLaneMatchesReference:
    def test_random_streams_emit_identical_sequences(self):
        emitted = sum(_run_stream(seed)[0] for seed in range(150))
        assert emitted > 500  # the pass is exercised, not vacuous

    def test_branch_rule_boundary_takes_the_index_branch(self):
        """At reached pairs == registered phases the index branch runs,
        and it emits in search order, not registration order."""
        emitted = []
        for solver in (IncrementalDifferenceLogic(), ReferenceIdl()):
            atoms = ((10, _diff("b", "a", -1)), (11, _diff("v", "u", -1)))
            for var, positive in atoms:
                if isinstance(solver, ReferenceIdl):
                    solver.register_atom(var, positive, positive.negated())
                else:
                    solver.register_atom(var, positive)
            assert solver.assert_lit(1, [_diff("u", "a", 0)]) is None
            assert solver.assert_lit(2, [_diff("b", "v", 0)]) is None
            # u -> v relaxes v and b: fwd = {v, b}, bwd = {u, a}, 2 x 2 = 4
            # reached pairs against 4 phases.
            assert solver.assert_lit(3, [_diff("v", "u", -1)]) is None
            emitted.append(solver.take_propagations())
        assert emitted == [[11, 10], [11, 10]]

    def test_both_candidate_branches_are_exercised(self):
        branches = {"index": 0, "scan": 0}
        for seed in range(150):
            _, solver = _run_stream(seed, _BranchCountingIdl)
            for name, count in solver.branches.items():
                branches[name] += count
        assert branches["index"] > 100 and branches["scan"] > 100, branches


class _BranchCountingIdl(IncrementalDifferenceLogic):
    """Counts which candidate branch each entailment pass takes."""

    def __init__(self, propagate: bool = True) -> None:
        super().__init__(propagate)
        self.branches = {"index": 0, "scan": 0}
        self._reached = 0

    def _forward_distances(self, start, cap):
        fwd = super()._forward_distances(start, cap)
        self._reached = len(fwd)
        return fwd

    def _backward_distances(self, start, cap):
        bwd = super()._backward_distances(start, cap)
        pairs = self._reached * len(bwd)
        self.branches["index" if pairs <= len(self._phases) else "scan"] += 1
        return bwd


@given(
    coeffs=st.dictionaries(
        st.sampled_from("xyz"), st.sampled_from((1, -1)), max_size=2
    ),
    bound=st.integers(-50, 50),
    var=st.integers(1, 10**6),
)
def test_phase_edges_are_the_translation_of_both_phases(coeffs, bound, var):
    positive = _constraint(coeffs, bound)
    edges = IncrementalDifferenceLogic().register_atom(var, positive)
    if not coeffs or not positive.is_difference:
        assert edges is None
        return
    expected = _edges_of(positive, var) + _edges_of(positive.negated(), -var)
    assert [_shape(e) for e in edges] == [_shape(e) for e in expected]
