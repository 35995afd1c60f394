"""Session-based verification: encode a trace once, query it many times.

The paper's headline observation is that *one* SMT encoding of a recorded
trace answers many different questions — is a property violated, is the
model feasible at all, can a particular send/receive pairing happen, what is
the full set of admissible matchings, can the program deadlock or lose a
message.  :class:`VerificationSession` turns
that observation into the API: the problem ``P = POrder ∧ PMatchPairs ∧
PUnique ∧ PEvents`` is encoded exactly once and loaded into one incremental
:class:`~repro.smt.backend.SolverBackend`; every query after that is an
assumption-scoped ``check`` (or, for enumeration, a blocking-clause loop in
a solver scope), so learned clauses and theory lemmas accumulate across the
whole query stream instead of being thrown away per call.

The negated property ``¬PProp`` is *assumed*, never asserted, which is what
lets verdict, feasibility, reachability and enumeration queries share one
backend without stepping on each other.

Quickstart::

    from repro.verification import VerificationSession
    from repro.workloads import figure1_program

    session = VerificationSession.from_program(figure1_program(assert_a_is_y=True))
    result = session.verdict()           # SAFE / VIOLATION (+ witness)
    session.feasibility()                # the model admits some execution
    for matching in session.pairings():  # every admissible send/recv pairing
        print(matching)

For one-shot batch traffic use :func:`verify_many`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.encoding.encoder import EncodedProblem, EncoderOptions, TraceEncoder
from repro.encoding.properties import (
    DeadlockProperty,
    OrphanMessageProperty,
    Property,
)
from repro.encoding.variables import match_var
from repro.encoding.witness import Witness, decode_witness
from repro.mcapi.network import DeliveryPolicy
from repro.mcapi.scheduler import SchedulingStrategy
from repro.program.ast import Program
from repro.program.interpreter import ProgramRun, run_program
from repro.program.statictrace import static_trace
from repro.smt.backend import SolverBackend, create_backend
from repro.smt.dpllt import CheckResult
from repro.smt.terms import And, Eq, IntVal, Not, Term
from repro.trace.trace import ExecutionTrace
from repro.utils.errors import (
    EncodingError,
    IncompleteEnumerationError,
    SolverError,
)
from repro.verification.result import Verdict, VerificationResult

__all__ = [
    "VerificationSession",
    "verify_many",
    "record_program",
    "VERIFICATION_MODES",
    "resolve_mode",
]

#: The questions the stack can ask of one trace.  ``safety`` is the paper's
#: assertion check on the base encoding; ``deadlock`` and ``orphan`` are the
#: partial-match/liveness extensions.
VERIFICATION_MODES = ("safety", "deadlock", "orphan")


def resolve_mode(
    mode: str,
    options: Optional[EncoderOptions],
    properties: Optional[Sequence[Property]],
) -> Tuple[Optional[EncoderOptions], Optional[Sequence[Property]]]:
    """Translate a verification ``mode`` into encoder options + properties.

    ``mode`` is pure sugar over the two real knobs, which is what lets the
    whole downstream stack (sessions, workers, cache keys) stay
    mode-agnostic: a deadlock question is simply the partial-match encoding
    plus :class:`DeadlockProperty`, an orphan question is
    :class:`OrphanMessageProperty` on the base encoding.  Explicit
    ``properties`` are mutually exclusive with a non-safety mode — the mode
    *is* a property selection.
    """
    if mode not in VERIFICATION_MODES:
        raise EncodingError(
            f"unknown verification mode {mode!r}; pick one of {VERIFICATION_MODES}"
        )
    if mode == "safety":
        return options, properties
    if properties is not None:
        raise EncodingError(
            f"mode={mode!r} selects its own property set; pass mode='safety' "
            "to verify explicit properties"
        )
    if mode == "deadlock":
        options = replace(options or EncoderOptions(), partial_matches=True)
        return options, [DeadlockProperty()]
    return options, [OrphanMessageProperty()]


def record_program(
    program: Program,
    seed: int = 0,
    on_deadlock: str = "raise",
    policy: Optional[DeliveryPolicy] = None,
    strategy: Optional[SchedulingStrategy] = None,
) -> Tuple[ExecutionTrace, Optional[ProgramRun]]:
    """Record ``program`` once; returns the trace and the run it came from.

    A run that blocks leaves no complete trace.  ``on_deadlock="raise"``
    then fails with :class:`EncodingError`: a truncated recording would
    silently under-approximate a safety analysis.  ``on_deadlock="static"``
    falls back to the statically unrolled symbolic trace
    (:func:`repro.program.statictrace.static_trace`, branch-free programs
    only) and returns no run; deadlock questions use it, because programs
    that deadlock on *every* schedule have no complete recording to offer.
    """
    if on_deadlock not in ("raise", "static"):
        raise EncodingError(
            f"on_deadlock must be 'raise' or 'static', got {on_deadlock!r}"
        )
    run = run_program(program, seed=seed, policy=policy, strategy=strategy)
    if not run.deadlocked:
        return run.trace, run
    if on_deadlock == "raise":
        raise EncodingError(
            f"the recording run of {program.name!r} (seed {seed}) deadlocked; "
            "pick a different seed/strategy to obtain a complete trace"
        )
    return static_trace(program), None


class VerificationSession:
    """One encoded trace, one incremental solver, arbitrarily many queries.

    Parameters
    ----------
    trace:
        The recorded execution trace to model.
    options:
        Encoder configuration (match-pair strategy, FIFO extension, ...).
    properties:
        Correctness properties; defaults to the assertions recorded in the
        trace.
    backend:
        A backend registry name (``"dpllt"``, ``"smtlib-pipe"``), a live
        :class:`~repro.smt.backend.SolverBackend`, or ``None`` for the
        default incremental DPLL(T) backend.
    max_solver_iterations:
        DPLL(T) iteration budget per ``check`` (``1 +`` the theory
        conflicts allowed); when it binds the answer is ``UNKNOWN`` with
        ``unknown_reason="resource"``.
    reduce_db / theory_bump / idl_propagation:
        Solver hot-path knobs forwarded to the dpllt backend when set:
        learned-clause database reduction (default on), the extra VSIDS
        bump factor for atoms named by theory feedback, and IDL bound
        propagation (default on).  ``None`` keeps the backend's default.
    program_run:
        The recording run, when the trace came from one (attached to
        results for replay).
    encoder:
        An existing :class:`TraceEncoder` to reuse (overrides ``options``).

    The constructor encodes the problem exactly once; no public method ever
    re-encodes.  The backend is created lazily on the first query so that
    sessions on property-free traces stay cheap.
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        options: Optional[EncoderOptions] = None,
        properties: Optional[Sequence[Property]] = None,
        backend: Union[str, SolverBackend, None] = None,
        max_solver_iterations: int = 200_000,
        reduce_db: Optional[bool] = None,
        theory_bump: Optional[float] = None,
        idl_propagation: Optional[bool] = None,
        program_run: Optional[ProgramRun] = None,
        encoder: Optional[TraceEncoder] = None,
    ) -> None:
        self.trace = trace
        self.program_run = program_run
        self._encoder = encoder if encoder is not None else TraceEncoder(options)
        self._properties = properties
        start = time.perf_counter()
        self._problem = self._encoder.encode(trace, properties=properties)
        self.encode_seconds = time.perf_counter() - start
        #: How many times the trace has been encoded.  Stays 1 for the
        #: session's whole lifetime — that is the point of the API.
        self.encode_count = 1
        self._backend_spec = backend
        self._max_iterations = max_solver_iterations
        self._reduce_db = reduce_db
        self._theory_bump = theory_bump
        self._idl_propagation = idl_propagation
        self._backend: Optional[SolverBackend] = None
        self._verdict: Optional[VerificationResult] = None
        self._orphan_verdict: Optional[VerificationResult] = None
        self._deadlock_session: Optional["VerificationSession"] = None
        self._enumerating = False

    # ------------------------------------------------------------------ creation

    @classmethod
    def from_program(
        cls,
        program: Program,
        seed: int = 0,
        policy: Optional[DeliveryPolicy] = None,
        strategy: Optional[SchedulingStrategy] = None,
        on_deadlock: str = "raise",
        **kwargs,
    ) -> "VerificationSession":
        """Record ``program`` once (any scheduling works) and open a session.

        ``on_deadlock`` says what a blocked recording run does (see
        :func:`record_program`): ``"raise"`` (default) fails with
        :class:`EncodingError`, ``"static"`` falls back to the static
        symbolic trace, as deadlock-mode verification does.
        """
        trace, run = record_program(program, seed, on_deadlock, policy, strategy)
        return cls(trace, program_run=run, **kwargs)

    # ------------------------------------------------------------------ accessors

    @property
    def problem(self) -> EncodedProblem:
        """The encoded problem (built exactly once, at construction)."""
        return self._problem

    @property
    def backend(self) -> SolverBackend:
        """The live solver backend, loaded with the base assertion set."""
        if self._backend is None:
            kwargs: Dict[str, object] = {"max_iterations": self._max_iterations}
            for name, value in (
                ("reduce_db", self._reduce_db),
                ("theory_bump", self._theory_bump),
                ("idl_propagation", self._idl_propagation),
            ):
                if value is not None:
                    kwargs[name] = value
            self._backend = create_backend(self._backend_spec, **kwargs)
            self._backend.add_all(self._problem.assertions(include_property=False))
        return self._backend

    @property
    def backend_name(self) -> str:
        if self._backend is not None:
            return getattr(self._backend, "name", "?")
        if isinstance(self._backend_spec, str):
            return self._backend_spec
        if self._backend_spec is None:
            return "dpllt"
        return getattr(self._backend_spec, "name", "?")

    def statistics(self) -> Dict[str, int]:
        """Backend statistics accumulated over the session (empty if unused)."""
        return {} if self._backend is None else self._backend.statistics()

    # ------------------------------------------------------------------ queries

    def verdict(
        self, mode: str = "safety", timeout_s: Optional[float] = None
    ) -> VerificationResult:
        """Check whether any modelled execution violates the properties.

        ``mode="safety"`` (default) checks the session's own property set;
        ``mode="deadlock"`` and ``mode="orphan"`` dispatch to
        :meth:`deadlocks` / :meth:`orphans`.  The negated property is
        passed as a *check assumption*, so the persistent assertion set —
        shared with every other query — is never polluted.  Results are
        cached per mode; repeated calls are free.

        ``timeout_s`` bounds the solve by wall clock: past the deadline the
        check comes back ``UNKNOWN`` with ``unknown_reason="timeout"``
        instead of hanging.  Timed-out answers are *not* memoized, so a
        retry with a larger (or no) budget gets a fresh solve — against a
        backend whose learned state survived the interrupted attempt.  A
        theory work cap (the LIA branch-and-bound node limit) also answers
        ``UNKNOWN``, with ``unknown_reason="resource"``.
        """
        if mode == "deadlock":
            return self.deadlocks(timeout_s=timeout_s)
        if mode == "orphan":
            return self.orphans(timeout_s=timeout_s)
        if mode != "safety":
            raise EncodingError(
                f"unknown verification mode {mode!r}; pick one of {VERIFICATION_MODES}"
            )
        if self._verdict is not None:
            return self._verdict
        self._require_not_enumerating("verdict")
        negated = self._problem.negated_property
        if negated is None:
            # No properties with content: nothing can be violated.
            self._verdict = VerificationResult(
                verdict=Verdict.SAFE,
                problem=self._problem,
                encode_seconds=self.encode_seconds,
                trace=self.trace,
                program_run=self.program_run,
                backend=self.backend_name,
            )
            return self._verdict

        result = self._decide(negated, timeout_s)
        if result.unknown_reason != "timeout":
            self._verdict = result
        return result

    def _decide(
        self, negated: Optional[Term], timeout_s: Optional[float]
    ) -> VerificationResult:
        """Check ``negated`` as an assumption, decode a witness from a SAT
        model, and wrap the answer.  ``None`` means nothing can be violated:
        the answer is SAFE without a check."""
        backend = self.backend
        deadline = self._arm_deadline(backend, timeout_s)
        start = time.perf_counter()
        try:
            outcome = CheckResult.UNSAT if negated is None else backend.check(negated)
        finally:
            if deadline is not None:
                self._disarm_deadline(backend)
        solve_seconds = time.perf_counter() - start

        witness: Optional[Witness] = None
        if outcome is CheckResult.SAT:
            verdict = Verdict.VIOLATION
            witness = decode_witness(self._problem, backend.model())
        elif outcome is CheckResult.UNSAT:
            verdict = Verdict.SAFE
        else:
            verdict = Verdict.UNKNOWN
        return VerificationResult(
            verdict=verdict,
            problem=self._problem,
            witness=witness,
            solver_statistics=backend.statistics(),
            encode_seconds=self.encode_seconds,
            solve_seconds=solve_seconds,
            trace=self.trace,
            program_run=self.program_run,
            backend=self.backend_name,
            unknown_reason=self._unknown_reason(backend, verdict, deadline),
        )

    @staticmethod
    def _unknown_reason(
        backend: SolverBackend, verdict: Verdict, deadline: Optional[float]
    ) -> Optional[str]:
        """Why an answer is ``UNKNOWN``: a cap the backend names, else a
        lapsed deadline (``"timeout"``), else nothing."""
        if verdict is not Verdict.UNKNOWN:
            return None
        reason = getattr(backend, "unknown_reason", None)
        if reason is not None:
            return reason
        if deadline is not None and time.monotonic() >= deadline:
            return "timeout"
        return None

    @staticmethod
    def _arm_deadline(
        backend: SolverBackend, timeout_s: Optional[float]
    ) -> Optional[float]:
        """Arm a wall-clock deadline on the backend; returns the instant.

        Backends without ``set_deadline`` still get the instant tracked so
        a late UNKNOWN can be *labelled* a timeout, but they cannot be
        interrupted mid-check — only the in-tree backends guarantee the
        returns-instead-of-hanging contract.
        """
        if timeout_s is None:
            return None
        deadline = time.monotonic() + timeout_s
        setter = getattr(backend, "set_deadline", None)
        if setter is not None:
            setter(deadline)
        return deadline

    @staticmethod
    def _disarm_deadline(backend: SolverBackend) -> None:
        setter = getattr(backend, "set_deadline", None)
        if setter is not None:
            setter(None)

    def _require_not_enumerating(self, operation: str) -> None:
        """Queries must not run inside an active enumeration's solver scope:
        its blocking clauses would silently change their answers."""
        if self._enumerating:
            raise SolverError(
                f"{operation}() cannot run while a pairings() enumeration is "
                "active on this session; exhaust or close the generator first"
            )

    def feasibility(self) -> bool:
        """True if the encoding admits at least one execution (sanity check)."""
        self._require_not_enumerating("feasibility")
        return self.backend.check() is CheckResult.SAT

    def reachable(self, pairing: Dict[int, int]) -> bool:
        """Is there an execution in which each ``recv_id`` matches ``send_id``?

        This is the query behind the Figure 4 experiment.  The pairing
        constraints are assumptions, so consecutive probes reuse everything
        the solver has learned.
        """
        self._require_not_enumerating("reachable")
        constraints = [
            Eq(match_var(recv_id), IntVal(send_id))
            for recv_id, send_id in pairing.items()
        ]
        return self.backend.check(*constraints) is CheckResult.SAT

    def deadlocks(self, timeout_s: Optional[float] = None) -> VerificationResult:
        """Can any modelled (partial) execution deadlock?

        ``VIOLATION`` means a reachable deadlock exists; the witness names
        the stuck endpoints (:attr:`Witness.unmatched_receives`) and the
        unmatched sends (:attr:`Witness.orphan_sends`) — see
        :meth:`Witness.deadlock_description`.  ``SAFE`` means every
        execution completes every receive.

        The check needs the partial-match encoding, which has a different
        base assertion set than the safety lane, so the session lazily opens
        one *deadlock sub-session* (same trace, same backend family,
        ``partial_matches=True`` + :class:`DeadlockProperty`) and keeps it
        warm for repeated calls.  A session already configured that way
        answers from its own backend directly.
        """
        if self._is_deadlock_configured():
            return self.verdict(timeout_s=timeout_s)
        if self._deadlock_session is None:
            options = replace(self._encoder.options, partial_matches=True)
            self._deadlock_session = VerificationSession(
                self.trace,
                options=options,
                properties=[DeadlockProperty()],
                backend=self._lane_backend_spec(),
                max_solver_iterations=self._max_iterations,
                reduce_db=self._reduce_db,
                theory_bump=self._theory_bump,
                idl_propagation=self._idl_propagation,
                program_run=self.program_run,
            )
        return self._deadlock_session.verdict(timeout_s=timeout_s)

    def orphans(self, timeout_s: Optional[float] = None) -> VerificationResult:
        """Can a message be sent and never received (an orphan/lost message)?

        Answered on this session's own encoding and backend via an assumed
        negated :class:`OrphanMessageProperty`: on a base-encoding session
        the question is over *complete* executions; on a partial-match
        session it also covers messages stranded by a deadlock (sends that
        executed before their would-be receiver blocked forever).
        """
        if self._orphan_verdict is not None:
            return self._orphan_verdict
        self._require_not_enumerating("orphans")
        prop = OrphanMessageProperty()
        term = (
            prop.partial_term(self.trace)
            if self._problem.partial_matches
            else prop.term(self.trace)
        )
        # No sends: nothing can be orphaned.
        result = self._decide(None if term.is_true else Not(term), timeout_s)
        if result.unknown_reason != "timeout":
            self._orphan_verdict = result
        return result

    def _is_deadlock_configured(self) -> bool:
        """True when this session itself already encodes the deadlock question."""
        return (
            self._problem.partial_matches
            and self._properties is not None
            and len(self._properties) == 1
            and isinstance(self._properties[0], DeadlockProperty)
        )

    def _lane_backend_spec(self) -> Union[str, None]:
        """A backend spec a sub-session can use (never a live instance)."""
        if isinstance(self._backend_spec, str) or self._backend_spec is None:
            return self._backend_spec
        name = getattr(self._backend_spec, "name", None)
        return name if isinstance(name, str) else None

    def pairings(self, limit: Optional[int] = None) -> Iterator[Dict[int, int]]:
        """Yield every complete matching the SMT model admits.

        Iterative blocking inside one solver scope: solve, yield the model's
        matching, assert a clause forbidding exactly that matching, repeat —
        all against the same incremental backend, so no query starts cold.
        The enumeration guard and solver scope are released however the
        generator ends — exhaustion, ``close()``, garbage collection, or an
        exception thrown by the consumer — so an abandoned generator can
        never leave the session stuck refusing further queries.

        ``limit`` caps the number of matchings yielded.  If the solver gives
        up (UNKNOWN) the generator raises
        :class:`~repro.utils.errors.IncompleteEnumerationError` instead of
        silently presenting the matchings found so far as exhaustive.

        Only one enumeration may be active per session at a time; starting a
        second one fails eagerly, at the call, not at the first ``next()``.
        """
        # Guard eagerly: generator bodies only run on the first next(), and
        # a guard that fires that late is easy to mistake for an iteration
        # bug.  The backend/scope setup stays inside the generator so that
        # an unconsumed generator object costs nothing.
        if self._enumerating:
            raise SolverError(
                "a pairings() enumeration is already active on this session; "
                "exhaust or close it before starting another"
            )
        return self._enumerate(limit)

    def _enumerate(self, limit: Optional[int]) -> Iterator[Dict[int, int]]:
        if self._enumerating:
            # A sibling generator won the race between our eager guard and
            # this body's first execution.
            raise SolverError(
                "a pairings() enumeration is already active on this session; "
                "exhaust or close it before starting another"
            )
        backend = self.backend
        self._enumerating = True
        backend.push()
        # Enumeration streams SAT models, a shape where IDL bound
        # propagation costs (a per-assertion entailment pass) without
        # paying (few refutations to shorten): pause the lane for the
        # enumeration scope — unless the caller pinned it explicitly.
        toggle = (
            getattr(backend, "set_idl_propagation", None)
            if self._idl_propagation is None
            else None
        )
        if toggle is not None:
            toggle(False)
        found: List[Dict[int, int]] = []
        try:
            while limit is None or len(found) < limit:
                outcome = backend.check()
                if outcome is CheckResult.UNKNOWN:
                    raise IncompleteEnumerationError(
                        "pairing enumeration stopped on UNKNOWN (solver "
                        f"iteration limit); the {len(found)} matchings found "
                        "so far are not exhaustive",
                        pairings=found,
                    )
                if outcome is not CheckResult.SAT:
                    return
                witness = decode_witness(self._problem, backend.model())
                matching = dict(witness.matching)
                found.append(matching)
                backend.add(
                    Not(
                        And(
                            [
                                Eq(match_var(recv_id), IntVal(send_id))
                                for recv_id, send_id in matching.items()
                            ]
                        )
                    )
                )
                yield matching
        finally:
            self._enumerating = False
            backend.pop()
            if toggle is not None:
                toggle(True)

    def enumerate_pairings(self, limit: Optional[int] = None) -> List[Dict[int, int]]:
        """All admissible matchings as a list (see :meth:`pairings`)."""
        return list(self.pairings(limit=limit))


def verify_many(
    items: Iterable[Union[Program, ExecutionTrace]],
    options: Optional[EncoderOptions] = None,
    properties: Optional[Sequence[Property]] = None,
    backend: Union[str, SolverBackend, None] = None,
    seed: int = 0,
    max_solver_iterations: int = 200_000,
    jobs: int = 1,
    cache=None,
    cache_dir: Optional[str] = None,
    mode: str = "safety",
    reduce_db: Optional[bool] = None,
    theory_bump: Optional[float] = None,
    idl_propagation: Optional[bool] = None,
    timeout_s: Optional[float] = None,
) -> List[VerificationResult]:
    """Batch front door: verify many programs and/or traces in one call.

    Programs are recorded once with ``seed`` and every item gets its own
    :class:`VerificationSession` (encode-once per item) sharing one encoder
    configuration.  Results come back in input order.  ``backend`` must be a
    registry name (each item gets a fresh backend); sharing one live backend
    instance across items would mix their assertion sets.

    ``mode`` selects the question asked of every item: ``"safety"`` (the
    default property check), ``"deadlock"`` (partial-match encoding +
    :class:`DeadlockProperty`; programs whose recording run blocks fall
    back to the static symbolic trace), or ``"orphan"`` (lost-message
    check).  Mode and explicit ``properties`` are mutually exclusive.

    The dpllt solver hot-path knobs ``reduce_db`` / ``theory_bump`` /
    ``idl_propagation`` apply to every item (``None`` keeps the backend
    defaults); in the parallel lane they are folded into the picklable
    :class:`~repro.smt.backend.BackendSpec` shipped to workers.

    ``timeout_s`` bounds each item's solve by wall clock; a query that
    cannot finish in time comes back ``UNKNOWN`` with
    ``unknown_reason="timeout"`` instead of stalling the whole batch.

    ``jobs`` and ``cache``/``cache_dir`` hand the batch to
    :class:`repro.verification.parallel.ParallelVerifier` — fingerprint
    dedup, result caching and dispatch on the service's
    :class:`~repro.service.pool.WorkerPool` (``jobs=1`` solves inline); see
    that module for semantics.  The default (``jobs=1``, no cache) keeps
    the simple one-session-per-item serial path below.
    """
    items = list(items)
    solver_knobs = {
        name: value
        for name, value in (
            ("reduce_db", reduce_db),
            ("theory_bump", theory_bump),
            ("idl_propagation", idl_propagation),
        )
        if value is not None
    }
    if jobs != 1 or cache is not None or cache_dir is not None:
        from repro.smt.backend import BackendSpec
        from repro.verification.parallel import ParallelVerifier

        if backend is not None and not isinstance(backend, (str, BackendSpec)):
            raise SolverError(
                "verify_many needs a backend registry name, not a live "
                "backend instance: worker processes build their own solvers"
            )
        if solver_knobs:
            backend = BackendSpec.of(backend, **solver_knobs)
        with ParallelVerifier(
            jobs=jobs,
            backend=backend,
            options=options,
            properties=properties,
            cache=cache,
            cache_dir=cache_dir,
            seed=seed,
            max_solver_iterations=max_solver_iterations,
            mode=mode,
            timeout_s=timeout_s,
        ) as verifier:
            return verifier.verify_many(items)
    if backend is not None and not isinstance(backend, str) and len(items) > 1:
        raise SolverError(
            "verify_many needs a backend registry name, not a live backend "
            "instance: each item must get its own solver state"
        )
    options, properties = resolve_mode(mode, options, properties)
    encoder = TraceEncoder(options)
    results: List[VerificationResult] = []
    for item in items:
        if isinstance(item, Program):
            trace, run = record_program(
                item, seed, "static" if mode == "deadlock" else "raise"
            )
        elif isinstance(item, ExecutionTrace):
            trace, run = item, None
        else:
            raise EncodingError(
                f"verify_many accepts Programs or ExecutionTraces, got {item!r}"
            )
        session = VerificationSession(
            trace,
            properties=properties,
            backend=backend,
            max_solver_iterations=max_solver_iterations,
            program_run=run,
            encoder=encoder,
            **solver_knobs,
        )
        results.append(session.verdict(timeout_s=timeout_s))
    return results
