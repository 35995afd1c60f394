"""The top-level trace encoder: builds  P = POrder ∧ PMatchPairs ∧ PUnique ∧ ¬PProp ∧ PEvents.

This is the paper's primary contribution: given one execution trace, a set of
match pairs and a set of correctness properties, produce an SMT problem whose
models are exactly the property-violating executions that follow the trace's
branch outcomes — including executions in which messages from different
threads to a common endpoint are reordered by transmission delays.

With ``EncoderOptions(partial_matches=True)`` the ``PMatchPairs`` conjunct
is replaced by the partial-match extension (``PMatchPartial ∧ PBlocking``,
:mod:`repro.encoding.partial`), whose models additionally include the
blocked-prefix executions needed to express deadlocks and orphaned
messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.encoding.events import branch_constraints, event_constraints
from repro.encoding.matchenc import match_pair_constraints
from repro.encoding.order import (
    clock_bounds,
    pair_fifo_constraints,
    program_order_constraints,
)
from repro.encoding.partial import (
    _GuardIndex,
    blocking_constraints,
    partial_match_constraints,
)
from repro.encoding.properties import Property, TraceAssertionsProperty, negated_properties
from repro.encoding.unique import uniqueness_constraints, uniqueness_constraints_pruned
from repro.encoding.variables import clock_name, match_name, unmatched_name
from repro.matching.matchpairs import MatchPairs
from repro.matching.overapprox import endpoint_match_pairs
from repro.matching.precise import precise_match_pairs
from repro.smt.smtlib import to_smtlib
from repro.smt.terms import And, Term
from repro.trace.trace import ExecutionTrace
from repro.utils.errors import EncodingError

__all__ = ["MatchPairStrategy", "EncoderOptions", "EncodedProblem", "TraceEncoder"]


class MatchPairStrategy(Enum):
    """How the candidate match pairs are generated."""

    #: All sends targeting the receive's endpoint (cheap, over-approximate,
    #: safe — the paper's proposed future-work strategy; the default).
    ENDPOINT = "endpoint"
    #: Depth-first abstract execution (exact but potentially exponential).
    PRECISE = "precise"


@dataclass
class EncoderOptions:
    """Configuration of the encoding.

    Attributes
    ----------
    match_strategy:
        Candidate match-pair generation strategy.
    prune_uniqueness:
        Use the pruned variant of ``PUnique`` (equivalent, smaller formula).
    include_clock_bounds:
        Add 0 < clk < 2·|trace| range constraints (smaller models, measured
        by the encoding benchmarks; never changes satisfiability).
    enforce_pair_fifo:
        Add MCAPI's per-pair FIFO guarantee (extension beyond the paper).
    include_assignment_definitions:
        Emit defining equations for assignment events that carry symbols.
    partial_matches:
        Use the partial-match extension (:mod:`repro.encoding.partial`):
        every receive gets an ``unmatched`` indicator, the models include
        partial (blocked-prefix) executions, and deadlock / orphan-message
        properties become expressible.  Off by default — the base encoding
        is the paper's, and is what safety verdicts use.
    """

    match_strategy: MatchPairStrategy = MatchPairStrategy.ENDPOINT
    prune_uniqueness: bool = True
    include_clock_bounds: bool = True
    enforce_pair_fifo: bool = False
    include_assignment_definitions: bool = True
    partial_matches: bool = False

    @classmethod
    def named(
        cls, match_pairs: Optional[str] = None, pair_fifo: bool = False
    ) -> "EncoderOptions":
        """The options the CLI flags and the daemon's spec keys name:
        ``match_pairs`` is ``"endpoint"`` (or ``None``) or ``"precise"``."""
        try:
            strategy = MatchPairStrategy(
                "endpoint" if match_pairs is None else match_pairs
            )
        except ValueError:
            raise EncodingError(
                f"unknown match_pairs {match_pairs!r}; pick 'endpoint' or 'precise'"
            ) from None
        return cls(match_strategy=strategy, enforce_pair_fifo=bool(pair_fifo))


@dataclass
class EncodedProblem:
    """The generated SMT problem, split into the paper's named conjuncts."""

    trace: ExecutionTrace
    match_pairs: MatchPairs
    order: List[Term] = field(default_factory=list)
    match: List[Term] = field(default_factory=list)
    unique: List[Term] = field(default_factory=list)
    events: List[Term] = field(default_factory=list)
    negated_property: Optional[Term] = None
    extras: List[Term] = field(default_factory=list)
    #: Blocking-semantics constraints (partial-match mode only).
    blocking: List[Term] = field(default_factory=list)
    #: True when the problem was built with the partial-match extension;
    #: the witness decoder needs this to interpret sentinel match values.
    partial_matches: bool = False

    # -- assembly ----------------------------------------------------------------

    def assertions(self, include_property: bool = True) -> List[Term]:
        """All assertions of the problem in a stable order."""
        out: List[Term] = []
        out.extend(self.order)
        out.extend(self.match)
        out.extend(self.unique)
        out.extend(self.events)
        out.extend(self.blocking)
        out.extend(self.extras)
        if include_property and self.negated_property is not None:
            out.append(self.negated_property)
        return out

    def formula(self, include_property: bool = True) -> Term:
        """The whole problem as a single conjunction."""
        return And(self.assertions(include_property=include_property))

    # -- reporting ---------------------------------------------------------------

    def size_summary(self) -> Dict[str, int]:
        return {
            "order_constraints": len(self.order),
            "match_constraints": len(self.match),
            "unique_constraints": len(self.unique),
            "event_constraints": len(self.events),
            "blocking_constraints": len(self.blocking),
            "extra_constraints": len(self.extras),
            "candidate_pairs": self.match_pairs.pair_count(),
            "events": len(self.trace),
            "receives": len(self.match_pairs),
            "sends": len(self.trace.sends()),
        }

    def variable_names(self) -> Dict[str, List[str]]:
        """The problem's variables grouped by role."""
        clocks = [clock_name(e.event_id) for e in self.trace.events]
        matches = [match_name(r) for r in self.match_pairs.receive_ids()]
        values = [
            self.match_pairs.receive(r).value_symbol
            for r in self.match_pairs.receive_ids()
        ]
        names = {"clocks": clocks, "matches": matches, "values": values}
        if self.partial_matches:
            names["unmatched"] = [
                unmatched_name(r) for r in self.match_pairs.receive_ids()
            ]
        return names

    def to_smtlib(self, include_property: bool = True) -> str:
        """Render the problem as an SMT-LIB v2 script (the paper used Yices)."""
        formula = (
            "P = POrder & PMatchPartial & PUnique & PBlocking & ~PProp & PEvents"
            if self.partial_matches
            else "P = POrder & PMatchPairs & PUnique & ~PProp & PEvents"
        )
        comments = [
            f"trace: {self.trace.name}",
            f"receives: {len(self.match_pairs)}  sends: {len(self.trace.sends())}",
            formula,
        ]
        return to_smtlib(self.assertions(include_property=include_property), comments=comments)


class TraceEncoder:
    """Builds :class:`EncodedProblem` objects from execution traces."""

    def __init__(self, options: Optional[EncoderOptions] = None) -> None:
        self.options = options or EncoderOptions()

    # ------------------------------------------------------------------ pieces

    def generate_match_pairs(self, trace: ExecutionTrace) -> MatchPairs:
        """Generate candidate match pairs according to the configured strategy."""
        if self.options.match_strategy is MatchPairStrategy.PRECISE:
            return precise_match_pairs(trace)
        return endpoint_match_pairs(trace)

    # ------------------------------------------------------------------ encoding

    def encode(
        self,
        trace: ExecutionTrace,
        properties: Optional[Sequence[Property]] = None,
        match_pairs: Optional[MatchPairs] = None,
    ) -> EncodedProblem:
        """Encode ``trace`` against ``properties``.

        When ``properties`` is omitted the assertions recorded in the trace
        are used (the program's own notion of correctness).  ``match_pairs``
        may be supplied explicitly — the paper's tool takes them as an input —
        otherwise they are generated with the configured strategy.
        """
        trace.validate()
        if match_pairs is None:
            match_pairs = self.generate_match_pairs(trace)
        else:
            match_pairs.validate(trace)
        if properties is None:
            properties = [TraceAssertionsProperty()]
        partial = self.options.partial_matches
        for prop in properties:
            if getattr(prop, "needs_partial_encoding", False) and not partial:
                raise EncodingError(
                    f"property {prop.name!r} needs the partial-match encoding; "
                    "set EncoderOptions(partial_matches=True)"
                )

        problem = EncodedProblem(
            trace=trace, match_pairs=match_pairs, partial_matches=partial
        )
        problem.order = program_order_constraints(trace)
        if self.options.include_clock_bounds:
            problem.order.extend(clock_bounds(trace))
        if partial:
            index = _GuardIndex(trace)
            problem.match = partial_match_constraints(trace, match_pairs, index=index)
            problem.blocking = blocking_constraints(trace, match_pairs, index=index)
        else:
            problem.match = match_pair_constraints(trace, match_pairs)
        if self.options.prune_uniqueness:
            problem.unique = uniqueness_constraints_pruned(match_pairs)
        else:
            problem.unique = uniqueness_constraints(match_pairs)
        if self.options.include_assignment_definitions:
            problem.events = event_constraints(trace)
        else:
            problem.events = branch_constraints(trace)
        if self.options.enforce_pair_fifo:
            problem.extras = pair_fifo_constraints(trace)
        problem.negated_property = negated_properties(trace, properties, partial=partial)
        return problem
