"""End-to-end tests of symbolic verification, witness decoding and replay.

These are the headline results of the reproduction: the encoding must admit
both Figure 4 behaviours of the paper's Figure 1 program, find the assertion
violation that requires the delayed-message behaviour (4b), and agree with
exhaustive explicit-state exploration on every small workload.
"""

import pytest

from repro.baselines.explicit import ExplicitStateExplorer, canonical_matching
from repro.encoding import EncoderOptions, ReceiveValueProperty
from repro.program import run_program
from repro.smt import Eq, IntVal, Ne
from repro.verification import (
    Verdict,
    VerificationSession,
    replay_witness,
    witness_schedule,
)
from repro.utils.errors import EncodingError
from repro.workloads import (
    X_VALUE,
    Y_VALUE,
    figure1_program,
    figure4a_pairing,
    figure4b_pairing,
    nonblocking_fanin,
    pipeline,
    racy_fanin,
    scatter_gather,
    token_ring,
)


def _verify_program(program, seed=0):
    """Record ``program`` once and ask the session for its verdict."""
    return VerificationSession.from_program(program, seed=seed).verdict()


def _model(trace):
    """A property-free session: the modelled executions of ``trace``."""
    return VerificationSession(trace, properties=[])


class TestFigure1:
    """The paper's running example (Figures 1 and 4)."""

    def test_assert_a_is_y_is_violable(self):
        """MCC and Elwakil miss this bug; the paper's encoding must find it."""
        result = _verify_program(figure1_program(assert_a_is_y=True), seed=0)
        assert result.verdict is Verdict.VIOLATION
        pairing = result.witness.pairing_description(result.problem)
        assert pairing == figure4b_pairing() or pairing["recv(A)"].startswith(
            f"send({X_VALUE})"
        )

    def test_assert_a_is_x_is_violable(self):
        result = _verify_program(figure1_program(assert_a_is_x=True), seed=0)
        assert result.verdict is Verdict.VIOLATION
        assert result.witness.pairing_description(result.problem)["recv(A)"].startswith(
            f"send({Y_VALUE})"
        )

    def test_both_figure4_pairings_admitted(self):
        run = run_program(figure1_program(), seed=0)
        session = _model(run.trace)
        pairings = session.enumerate_pairings()
        descriptions = []
        problem = session.problem
        from repro.encoding.witness import Witness

        for matching in pairings:
            witness = Witness(matching=matching)
            descriptions.append(witness.pairing_description(problem))
        assert figure4a_pairing() in descriptions
        assert figure4b_pairing() in descriptions
        assert len(descriptions) == 2

    def test_recv_c_always_gets_z(self):
        """recv(C) can only obtain Z, so asserting that is SAFE."""
        run = run_program(figure1_program(), seed=0)
        recv_c = next(
            op.recv_id for op in run.trace.receive_operations() if op.thread == "t1"
        )
        prop = ReceiveValueProperty(recv_c, lambda v: Eq(v, IntVal(30)), name="C-is-Z")
        result = VerificationSession(run.trace, properties=[prop]).verdict()
        assert result.verdict is Verdict.SAFE

    def test_verdict_independent_of_recording_seed(self):
        verdicts = set()
        for seed in range(4):
            result = _verify_program(figure1_program(assert_a_is_y=True), seed=seed)
            verdicts.add(result.verdict)
        assert verdicts == {Verdict.VIOLATION}

    def test_pairing_reachability_queries(self):
        run = run_program(figure1_program(), seed=0)
        trace = run.trace
        sends_by_value = {s.payload_value: s.send_id for s in trace.sends()}
        recv_by_var = {
            getattr(trace[op.issue_event_id], "target_variable", None): op.recv_id
            for op in trace.receive_operations()
        }
        session = _model(trace)
        # A <- Y (figure 4a) and A <- X (figure 4b) are both reachable.
        assert session.reachable({recv_by_var["A"]: sends_by_value[Y_VALUE]})
        assert session.reachable({recv_by_var["A"]: sends_by_value[X_VALUE]})
        # C <- X is not (X targets t0's endpoint).
        assert not session.reachable({recv_by_var["C"]: sends_by_value[X_VALUE]})


class TestSafePrograms:
    @pytest.mark.parametrize(
        "program",
        [pipeline(4), scatter_gather(3), token_ring(3)],
        ids=lambda p: p.name,
    )
    def test_schedule_independent_assertions_are_safe(self, program):
        result = _verify_program(program, seed=0)
        assert result.verdict is Verdict.SAFE

    def test_no_properties_is_trivially_safe(self):
        result = _verify_program(figure1_program(), seed=0)
        assert result.verdict is Verdict.SAFE
        assert result.witness is None

    def test_feasibility_check(self):
        run = run_program(figure1_program(), seed=0)
        assert _model(run.trace).feasibility()


class TestRacyPrograms:
    def test_racy_fanin_violation_found(self):
        result = _verify_program(
            racy_fanin(3, assert_first_from_sender0=True), seed=0
        )
        assert result.verdict is Verdict.VIOLATION

    def test_nonblocking_fanin_violation_found(self):
        result = _verify_program(nonblocking_fanin(3), seed=0)
        assert result.verdict is Verdict.VIOLATION

    def test_scatter_gather_order_assertion_violable(self):
        result = _verify_program(scatter_gather(3, assert_order=True), seed=0)
        assert result.verdict is Verdict.VIOLATION

    def test_enumerated_pairings_match_ground_truth(self):
        """Symbolic pairings == pairings reached by exhaustive exploration."""
        program = racy_fanin(3)
        run = run_program(program, seed=0)
        symbolic = {
            canonical_matching(run.trace, m)
            for m in _model(run.trace).enumerate_pairings()
        }
        explicit = ExplicitStateExplorer(program).explore().matchings
        assert symbolic == explicit
        assert len(symbolic) == 6

    def test_enumerate_pairings_limit(self):
        run = run_program(racy_fanin(3), seed=0)
        assert len(_model(run.trace).enumerate_pairings(limit=2)) == 2


class TestWitnessReplay:
    def test_witness_replays_to_concrete_violation(self):
        program = figure1_program(assert_a_is_y=True)
        result = _verify_program(program, seed=0)
        assert result.verdict is Verdict.VIOLATION
        outcome = replay_witness(program, result.problem, result.witness)
        assert outcome.values_match
        assert outcome.reproduced_violation
        assert any(f.label == "A-received-Y" for f in outcome.run.assertion_failures)

    def test_witness_replay_racy_fanin(self):
        program = racy_fanin(3, assert_first_from_sender0=True)
        result = _verify_program(program, seed=1)
        outcome = replay_witness(program, result.problem, result.witness)
        assert outcome.values_match
        assert outcome.reproduced_violation

    def test_replay_rejects_nonblocking_traces(self):
        program = nonblocking_fanin(2)
        result = _verify_program(program, seed=0)
        assert result.verdict is Verdict.VIOLATION
        with pytest.raises(EncodingError):
            witness_schedule(result.problem, result.witness)

    def test_deadlocked_recording_run_is_rejected(self):
        from repro.program import ProgramBuilder

        builder = ProgramBuilder("stuck")
        builder.thread("a").recv("x")
        with pytest.raises(EncodingError):
            _verify_program(builder.build(), seed=0)


class TestResultReporting:
    def test_describe_contains_key_information(self):
        result = _verify_program(figure1_program(assert_a_is_y=True), seed=0)
        text = result.describe()
        assert "violation" in text
        assert "matching" in text
        assert "clk=" in text

    def test_statistics_populated(self):
        result = _verify_program(figure1_program(assert_a_is_y=True), seed=0)
        assert result.solver_statistics["atoms"] > 0
        assert result.solve_seconds >= 0.0
        assert result.encode_seconds >= 0.0
