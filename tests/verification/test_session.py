"""Tests for the session-based verification API: encode-once semantics,
incremental query streams, UNKNOWN surfacing, and the batch front door."""

import pytest

from repro.baselines.explicit import ExplicitStateExplorer, canonical_matching
from repro.encoding.encoder import TraceEncoder
from repro.program import ProgramBuilder, run_program
from repro.program.ast import C, V
from repro.smt import CheckResult, DpllTBackend
from repro.smt.terms import Add, Eq, IntVal, IntVar, Mul
from repro.utils.errors import (
    EncodingError,
    IncompleteEnumerationError,
    SolverError,
    UnknownBackendError,
)
from repro.verification import (
    Verdict,
    VerificationSession,
    replay_witness,
    verify_many,
)
from repro.workloads import (
    X_VALUE,
    Y_VALUE,
    figure1_program,
    figure4a_pairing,
    figure4b_pairing,
    pipeline,
    racy_fanin,
    scatter_gather,
)


class CountingEncoder(TraceEncoder):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.encode_calls = 0

    def encode(self, *args, **kwargs):
        self.encode_calls += 1
        return super().encode(*args, **kwargs)


class TestSessionQueries:
    def test_verdict_violation_with_witness(self):
        session = VerificationSession.from_program(
            figure1_program(assert_a_is_y=True), seed=0
        )
        result = session.verdict()
        assert result.verdict is Verdict.VIOLATION
        assert result.witness is not None
        assert result.backend == "dpllt"
        # Cached: same object on repeat calls.
        assert session.verdict() is result

    def test_verdict_safe(self):
        session = VerificationSession.from_program(pipeline(3), seed=0)
        assert session.verdict().verdict is Verdict.SAFE

    def test_feasibility_and_reachability_share_one_backend(self):
        session = VerificationSession.from_program(figure1_program(), seed=0)
        assert session.feasibility()
        backend = session.backend
        trace = session.trace
        sends_by_value = {s.payload_value: s.send_id for s in trace.sends()}
        recv_by_var = {
            getattr(trace[op.issue_event_id], "target_variable", None): op.recv_id
            for op in trace.receive_operations()
        }
        assert session.reachable({recv_by_var["A"]: sends_by_value[Y_VALUE]})
        assert session.reachable({recv_by_var["A"]: sends_by_value[X_VALUE]})
        assert not session.reachable({recv_by_var["C"]: sends_by_value[X_VALUE]})
        assert session.backend is backend  # never rebuilt

    def test_verdict_does_not_pollute_enumeration(self):
        """¬PProp is assumed, not asserted: the pairing enumeration after a
        VIOLATION verdict must still see every admissible matching."""
        session = VerificationSession.from_program(
            figure1_program(assert_a_is_y=True), seed=0
        )
        assert session.verdict().verdict is Verdict.VIOLATION
        assert len(session.enumerate_pairings()) == 2
        assert session.feasibility()

    def test_pairings_generator_is_lazy_and_restorable(self):
        session = VerificationSession.from_program(racy_fanin(3), seed=0)
        gen = session.pairings()
        first = next(gen)
        assert isinstance(first, dict)
        gen.close()  # abandon mid-enumeration: scope must unwind
        # Full enumeration afterwards still sees all 6 matchings.
        assert len(session.enumerate_pairings()) == 6

    def test_pairings_pause_and_restore_idl_propagation(self):
        """Enumeration pauses the IDL propagation lane (a SAT-model stream
        gains nothing from it) and restores it afterwards — unless the
        session pinned the knob explicitly."""
        session = VerificationSession.from_program(racy_fanin(3), seed=0)
        session.feasibility()  # materialise the backend
        core = session.backend.engine._core
        assert core._idl_propagation is True
        gen = session.pairings()
        next(gen)
        assert core._idl_propagation is False
        gen.close()
        assert core._idl_propagation is True

        pinned = VerificationSession.from_program(
            racy_fanin(3), seed=0, idl_propagation=True
        )
        pinned.feasibility()
        pinned_core = pinned.backend.engine._core
        gen = pinned.pairings()
        next(gen)
        assert pinned_core._idl_propagation is True
        gen.close()

    def test_abandoned_generator_unwinds_on_gc(self):
        """Regression: a pairings() generator dropped without close() must
        release the enumeration guard and solver scope when collected, not
        leave every later query raising 'enumeration is active'."""
        import gc

        session = VerificationSession.from_program(racy_fanin(3), seed=0)
        gen = session.pairings()
        next(gen)
        del gen
        gc.collect()
        assert session.feasibility()
        assert len(session.enumerate_pairings()) == 6

    def test_consumer_exception_unwinds_enumeration(self):
        """Regression: an exception raised *by the consumer* mid-iteration
        abandons the generator; the session must recover."""
        import gc

        session = VerificationSession.from_program(racy_fanin(2), seed=0)
        with pytest.raises(RuntimeError):
            for _ in session.pairings():
                raise RuntimeError("consumer failure")
        gc.collect()
        assert session.verdict() is not None
        assert len(session.enumerate_pairings()) == 2

    def test_close_before_first_next_is_harmless(self):
        session = VerificationSession.from_program(racy_fanin(2), seed=0)
        gen = session.pairings()
        gen.close()  # never started: no scope was pushed, nothing to unwind
        assert session.feasibility()
        assert len(session.enumerate_pairings()) == 2

    def test_second_enumeration_rejected_eagerly(self):
        """The guard fires at the pairings() call itself, not at the first
        next(), so misuse cannot hide inside an unconsumed generator."""
        session = VerificationSession.from_program(racy_fanin(2), seed=0)
        gen = session.pairings()
        next(gen)
        with pytest.raises(SolverError):
            session.pairings()
        gen.close()
        assert len(session.enumerate_pairings()) == 2

    def test_unknown_enumeration_unwinds_guard(self):
        """IncompleteEnumerationError must leave the session usable with a
        bigger budget, not stuck in the enumeration guard."""
        session = VerificationSession.from_program(
            racy_fanin(2), seed=0, max_solver_iterations=0
        )
        with pytest.raises(IncompleteEnumerationError):
            session.enumerate_pairings()
        session._max_iterations = 200_000  # simulate a budget bump
        session._backend = None  # rebuild lazily with the new budget
        assert len(session.enumerate_pairings()) == 2

    def test_pairings_limit(self):
        session = VerificationSession.from_program(racy_fanin(3), seed=0)
        assert len(session.enumerate_pairings(limit=2)) == 2

    def test_concurrent_enumerations_rejected(self):
        session = VerificationSession.from_program(racy_fanin(2), seed=0)
        gen = session.pairings()
        next(gen)
        with pytest.raises(SolverError):
            next(session.pairings())
        gen.close()

    def test_queries_rejected_while_enumeration_active(self):
        """Blocking clauses of a live enumeration must never silently leak
        into verdict/feasibility/reachability answers."""
        session = VerificationSession.from_program(
            figure1_program(assert_a_is_y=True), seed=0
        )
        gen = session.pairings()
        first = next(gen)
        with pytest.raises(SolverError):
            session.reachable(first)
        with pytest.raises(SolverError):
            session.feasibility()
        with pytest.raises(SolverError):
            session.verdict()
        gen.close()
        # After the enumeration closes, the answers are correct (the verdict
        # must not have been cached as SAFE by the blocked attempt).
        assert session.reachable(first)
        assert session.verdict().verdict is Verdict.VIOLATION

    def test_pairings_match_explicit_exploration(self):
        program = racy_fanin(3)
        session = VerificationSession.from_program(program, seed=0)
        symbolic = {
            canonical_matching(session.trace, m) for m in session.pairings()
        }
        explicit = ExplicitStateExplorer(program).explore().matchings
        assert symbolic == explicit

    def test_figure4_pairings_through_session(self):
        session = VerificationSession.from_program(figure1_program(), seed=0)
        from repro.encoding.witness import Witness

        descriptions = [
            Witness(matching=m).pairing_description(session.problem)
            for m in session.pairings()
        ]
        assert figure4a_pairing() in descriptions
        assert figure4b_pairing() in descriptions
        assert len(descriptions) == 2


class TestEncodeOnce:
    def test_all_queries_encode_exactly_once(self):
        run = run_program(figure1_program(assert_a_is_y=True), seed=0)
        encoder = CountingEncoder()
        session = VerificationSession(run.trace, encoder=encoder, program_run=run)
        session.verdict()
        session.feasibility()
        session.enumerate_pairings()
        session.verdict()
        assert encoder.encode_calls == 1
        assert session.encode_count == 1


class TestUnknownSurfacing:
    """The seed bug: UNKNOWN used to terminate enumeration as if exhaustive."""

    def test_session_pairings_raise_on_unknown(self):
        session = VerificationSession.from_program(
            racy_fanin(3), seed=0, max_solver_iterations=0
        )
        with pytest.raises(IncompleteEnumerationError) as excinfo:
            session.enumerate_pairings()
        assert excinfo.value.pairings == []

    def test_trace_session_pairings_raise_on_unknown(self):
        """A session opened on a bare recorded trace surfaces UNKNOWN too."""
        run = run_program(racy_fanin(3), seed=0)
        session = VerificationSession(run.trace, max_solver_iterations=0)
        with pytest.raises(IncompleteEnumerationError) as excinfo:
            session.enumerate_pairings()
        assert excinfo.value.pairings == []

    def test_lazy_pairings_raise_on_first_next(self):
        """The generator form raises at the first ``next()``, not at the
        call, and releases the enumeration guard when it does."""
        session = VerificationSession.from_program(
            racy_fanin(2), seed=0, max_solver_iterations=0
        )
        gen = session.pairings()
        with pytest.raises(IncompleteEnumerationError):
            next(gen)
        # A second enumeration is not refused as concurrent.
        with pytest.raises(IncompleteEnumerationError):
            next(session.pairings())

    def test_verdict_unknown_flagged(self):
        session = VerificationSession.from_program(
            figure1_program(assert_a_is_y=True), seed=0, max_solver_iterations=0
        )
        assert session.verdict().verdict is Verdict.UNKNOWN


class TestSessionConstruction:
    def test_from_program_rejects_deadlock(self):
        builder = ProgramBuilder("stuck")
        builder.thread("a").recv("x")
        with pytest.raises(EncodingError):
            VerificationSession.from_program(builder.build(), seed=0)

    def test_unknown_backend_name(self):
        session = VerificationSession.from_program(
            figure1_program(), seed=0, backend="nope"
        )
        with pytest.raises(UnknownBackendError):
            session.feasibility()

    def test_explicit_backend_instance(self):
        backend = DpllTBackend()
        session = VerificationSession.from_program(
            figure1_program(), seed=0, backend=backend
        )
        assert session.feasibility()
        assert session.backend is backend
        assert session.backend_name == "dpllt"

    def test_statistics_empty_before_first_query(self):
        session = VerificationSession.from_program(figure1_program(), seed=0)
        assert session.statistics() == {}
        session.feasibility()
        assert session.statistics()["checks"] >= 1


class TestVerifyMany:
    def test_batch_of_programs_and_traces(self):
        trace = run_program(scatter_gather(2, assert_order=True), seed=0).trace
        results = verify_many(
            [
                figure1_program(assert_a_is_y=True),
                pipeline(3),
                trace,
            ]
        )
        assert [r.verdict for r in results] == [
            Verdict.VIOLATION,
            Verdict.SAFE,
            Verdict.VIOLATION,
        ]
        assert results[0].program_run is not None
        assert results[2].trace is trace

    def test_rejects_foreign_items(self):
        with pytest.raises(EncodingError):
            verify_many(["not a program"])

    def test_rejects_shared_backend_instance(self):
        with pytest.raises(SolverError):
            verify_many([pipeline(2), pipeline(3)], backend=DpllTBackend())

    def test_empty_batch(self):
        assert verify_many([]) == []


class TestLinearArithmeticLane:
    """scatter_gather asserts a *sum* of received payloads, so its verdicts
    run on the LIA lane rather than on difference logic."""

    def test_scatter_gather_four_sum_is_safe(self):
        session = VerificationSession.from_program(scatter_gather(4), seed=0)
        result = session.verdict()
        assert result.verdict is Verdict.SAFE
        stats = result.solver_statistics
        # Every LIA conflict is caught when its literal is asserted, on a
        # partial assignment, and the search stays small.
        assert stats["theory_conflicts"] > 0
        assert stats["theory_partial_conflicts"] == stats["theory_conflicts"]
        assert stats["sat_conflicts"] < 2_000

    def test_scatter_gather_four_order_is_violable_and_replays(self):
        program = scatter_gather(4, assert_order=True)
        session = VerificationSession.from_program(program, seed=0)
        result = session.verdict()
        assert result.verdict is Verdict.VIOLATION
        assert result.solver_statistics["sat_conflicts"] < 2_000
        outcome = replay_witness(program, result.problem, result.witness)
        assert outcome.values_match
        assert outcome.reproduced_violation
        assert any(
            f.label == "first-reply-from-worker0"
            for f in outcome.run.assertion_failures
        )

    def test_branch_and_bound_cap_is_unknown_resource(self):
        """A backend whose LIA lane exhausts the branch-and-bound node cap
        answers UNKNOWN(resource) on every query mode, and never raises."""
        x, y = IntVar("cap_x"), IntVar("cap_y")
        backend = DpllTBackend()
        # Rationally feasible, no integer point, unbounded: B&B never ends.
        backend.add(Eq(Add(Mul(2, x), Mul(-2, y)), IntVal(1)))
        # Two sends, one receive: a safety violation and an orphan exist,
        # so both searches reach the final check that runs B&B.
        builder = ProgramBuilder("one_orphan")
        builder.thread("a").send("c", C(1))
        builder.thread("b").send("c", C(2))
        builder.thread("c").recv("x").assertion(V("x").eq(C(1)), label="x-is-1")
        session = VerificationSession.from_program(
            builder.build(), seed=0, backend=backend
        )
        for result in (session.verdict(), session.orphans()):
            assert result.verdict is Verdict.UNKNOWN
            assert result.unknown_reason == "resource"
            assert not result.timed_out

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_iteration_budget_is_unknown_resource(self, budget):
        """The DPLL(T) iteration budget is a resource cap like the B&B node
        limit: when it binds, the answer is UNKNOWN(resource), not a bare
        UNKNOWN; with the default budget the same question is decided."""
        program = racy_fanin(4, assert_first_from_sender0=True)
        trace = run_program(program, seed=0).trace
        result = VerificationSession(trace, max_solver_iterations=budget).verdict()
        assert result.verdict is Verdict.UNKNOWN
        assert result.unknown_reason == "resource"
        assert not result.timed_out
        assert VerificationSession(trace).verdict().verdict is Verdict.VIOLATION

