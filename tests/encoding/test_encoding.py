"""Tests for the SMT encoding: POrder, PMatchPairs, PUnique, PEvents, PProp."""

import pytest

from repro.encoding import (
    EncoderOptions,
    MatchPairStrategy,
    MatchProperty,
    ReceiveValueProperty,
    TermProperty,
    TraceAssertionsProperty,
    TraceEncoder,
    branch_constraints,
    clock_name,
    clock_var,
    match_name,
    match_pair_constraints,
    match_predicate,
    match_var,
    negated_properties,
    pair_fifo_constraints,
    program_order_constraints,
    uniqueness_constraints,
    uniqueness_constraints_pruned,
)
from repro.encoding.witness import decode_witness
from repro.matching import endpoint_match_pairs
from repro.program import run_program
from repro.smt import CheckResult, DpllTBackend, Eq, IntVal
from repro.smt.models import Model
from repro.utils.errors import EncodingError
from repro.workloads import (
    X_VALUE,
    Y_VALUE,
    branching_consumer,
    figure1_program,
    nonblocking_fanin,
    pipeline,
    racy_fanin,
)


@pytest.fixture(scope="module")
def figure1_trace():
    return run_program(figure1_program(), seed=0).trace


@pytest.fixture(scope="module")
def figure1_problem(figure1_trace):
    return TraceEncoder().encode(figure1_trace, properties=[])


class TestOrderConstraints:
    def test_one_constraint_per_adjacent_pair(self, figure1_trace):
        constraints = program_order_constraints(figure1_trace)
        assert len(constraints) == len(figure1_trace.program_order_pairs())
        assert all(c.kind == "lt" for c in constraints)

    def test_program_order_unsatisfiable_when_reversed(self, figure1_trace):
        solver = DpllTBackend()
        solver.add_all(program_order_constraints(figure1_trace))
        # Add a reversal of the first pair: must become UNSAT.
        before, after = figure1_trace.program_order_pairs()[0]
        from repro.smt import Lt

        assert solver.check(Lt(clock_var(after), clock_var(before))) is CheckResult.UNSAT

    def test_pair_fifo_constraints_exist_for_same_pair_sends(self):
        trace = run_program(racy_fanin(2, messages_per_sender=2), seed=0).trace
        constraints = pair_fifo_constraints(trace)
        assert constraints, "two sends over one pair should induce FIFO constraints"


class TestMatchPredicate:
    def test_match_structure(self, figure1_trace):
        pairs = endpoint_match_pairs(figure1_trace)
        recv_id = pairs.receive_ids()[0]
        recv = pairs.receive(recv_id)
        send = pairs.send(pairs.get_sends(recv_id)[0])
        term = match_predicate(recv, send)
        text = str(term)
        assert clock_name(send.event_id) in text
        assert clock_name(recv.completion_event_id) in text
        assert recv.value_symbol in text
        assert match_name(recv_id) in text

    def test_match_rejects_wrong_endpoint(self, figure1_trace):
        pairs = endpoint_match_pairs(figure1_trace)
        # recv(C) lives on t1's endpoint; a send to t0 must be rejected.
        recv_c = next(
            op for op in figure1_trace.receive_operations() if op.thread == "t1"
        )
        send_to_t0 = next(
            s for s in figure1_trace.sends() if s.destination.node == 0
        )
        with pytest.raises(EncodingError):
            match_predicate(recv_c, send_to_t0)

    def test_nonblocking_match_uses_wait_clock(self):
        trace = run_program(nonblocking_fanin(2), seed=0).trace
        pairs = endpoint_match_pairs(trace)
        op = pairs.receive(pairs.receive_ids()[0])
        assert not op.blocking
        send = pairs.send(pairs.get_sends(op.recv_id)[0])
        text = str(match_predicate(op, send))
        assert clock_name(op.completion_event_id) in text
        assert clock_name(op.issue_event_id) not in text

    def test_match_pair_constraints_one_per_receive(self, figure1_trace):
        pairs = endpoint_match_pairs(figure1_trace)
        constraints = match_pair_constraints(figure1_trace, pairs)
        assert len(constraints) == len(pairs)


class TestUniqueness:
    def test_all_pairs_count(self, figure1_trace):
        pairs = endpoint_match_pairs(figure1_trace)
        n = len(pairs)
        assert len(uniqueness_constraints(pairs)) == n * (n - 1) // 2

    def test_pruned_is_smaller_but_equivalent_here(self, figure1_trace):
        pairs = endpoint_match_pairs(figure1_trace)
        full = uniqueness_constraints(pairs)
        pruned = uniqueness_constraints_pruned(pairs)
        assert len(pruned) <= len(full)
        # recv(C) shares no candidates with the t0 receives, so pruning helps.
        assert len(pruned) == 1


class TestEventsAndProperties:
    def test_branch_constraints_follow_outcome(self):
        trace = run_program(branching_consumer(), seed=0).trace
        (branch,) = trace.branches()
        (constraint,) = branch_constraints(trace)
        if branch.outcome:
            assert constraint == branch.condition
        else:
            assert constraint.kind == "not"

    def test_trace_assertions_property(self):
        trace = run_program(figure1_program(assert_a_is_y=True), seed=0).trace
        prop = TraceAssertionsProperty()
        term = prop.term(trace)
        assert "recv_val_0" in str(term)

    def test_negated_properties_none_when_empty(self, figure1_trace):
        assert negated_properties(figure1_trace, []) is None
        assert (
            negated_properties(figure1_trace, [TraceAssertionsProperty()]) is None
        ), "figure1 without assertions has no property content"

    def test_receive_value_property(self, figure1_trace):
        prop = ReceiveValueProperty(0, lambda v: Eq(v, IntVal(Y_VALUE)), name="A-is-Y")
        term = prop.term(figure1_trace)
        assert "recv_val_0" in str(term)
        with pytest.raises(EncodingError):
            ReceiveValueProperty(99, lambda v: Eq(v, IntVal(0))).term(figure1_trace)

    def test_match_property(self, figure1_trace):
        prop = MatchProperty(0, [0, 2])
        term = prop.term(figure1_trace)
        assert match_name(0) in str(term)
        with pytest.raises(EncodingError):
            MatchProperty(0, []).term(figure1_trace)

    def test_term_property_passthrough(self, figure1_trace):
        from repro.smt import TRUE

        assert TermProperty(TRUE).term(figure1_trace) == TRUE


class TestEncoder:
    def test_problem_structure(self, figure1_problem):
        summary = figure1_problem.size_summary()
        assert summary["receives"] == 3
        assert summary["sends"] == 3
        assert summary["candidate_pairs"] == 5
        assert summary["match_constraints"] == 3
        names = figure1_problem.variable_names()
        assert len(names["clocks"]) == 6
        assert len(names["matches"]) == 3

    def test_base_problem_is_satisfiable(self, figure1_problem):
        solver = DpllTBackend()
        solver.add_all(figure1_problem.assertions(include_property=False))
        assert solver.check() is CheckResult.SAT

    def test_smtlib_export(self, figure1_problem):
        script = figure1_problem.to_smtlib()
        assert "(set-logic" in script
        assert "(check-sat)" in script
        assert clock_name(0) in script
        assert "PMatchPairs" in script  # the structural comment

    def test_precise_strategy_option(self, figure1_trace):
        encoder = TraceEncoder(EncoderOptions(match_strategy=MatchPairStrategy.PRECISE))
        problem = encoder.encode(figure1_trace, properties=[])
        assert problem.size_summary()["candidate_pairs"] == 5

    def test_explicit_match_pairs_are_validated(self, figure1_trace):
        from repro.matching import MatchPairs

        bad = MatchPairs(candidates={0: [99]}, receives={}, sends={})
        with pytest.raises(Exception):
            TraceEncoder().encode(figure1_trace, match_pairs=bad)

    def test_options_change_problem_size(self, figure1_trace):
        small = TraceEncoder(
            EncoderOptions(include_clock_bounds=False, prune_uniqueness=True)
        ).encode(figure1_trace, properties=[])
        large = TraceEncoder(
            EncoderOptions(include_clock_bounds=True, prune_uniqueness=False)
        ).encode(figure1_trace, properties=[])
        assert len(small.assertions()) < len(large.assertions())

    def test_pair_fifo_option_adds_extras(self):
        trace = run_program(racy_fanin(2, messages_per_sender=2), seed=0).trace
        base = TraceEncoder().encode(trace, properties=[])
        fifo = TraceEncoder(EncoderOptions(enforce_pair_fifo=True)).encode(
            trace, properties=[]
        )
        assert len(fifo.extras) > len(base.extras)


class TestModelsRespectEncoding:
    def test_every_model_satisfies_match_semantics(self, figure1_trace):
        """Each model of the base problem picks a candidate send, transfers its
        value, and orders the send before the receive."""
        problem = TraceEncoder().encode(figure1_trace, properties=[])
        solver = DpllTBackend()
        solver.add_all(problem.assertions(include_property=False))
        assert solver.check() is CheckResult.SAT
        model = solver.model()
        witness = decode_witness(problem, model)
        sends = {s.send_id: s for s in figure1_trace.sends()}
        for op in figure1_trace.receive_operations():
            send_id = witness.matching[op.recv_id]
            send = sends[send_id]
            assert send.destination == op.endpoint
            assert witness.clocks[send.event_id] < witness.clocks[op.completion_event_id]
            assert witness.receive_values[op.recv_id] == send.payload_value
        # Uniqueness.
        assert len(set(witness.matching.values())) == len(witness.matching)

    def test_decode_witness_rejects_non_candidate(self, figure1_problem):
        bogus = Model({match_name(r): 999 for r in range(3)})
        with pytest.raises(EncodingError):
            decode_witness(figure1_problem, bogus)

    def test_branch_outcomes_are_enforced(self):
        """The encoding must pin the branch to the recorded outcome."""
        run = run_program(branching_consumer(), seed=0).trace
        (branch,) = run.branches()
        problem = TraceEncoder().encode(run, properties=[])
        solver = DpllTBackend()
        solver.add_all(problem.assertions(include_property=False))
        # Asserting the opposite outcome must be UNSAT.
        from repro.smt import Not

        flipped = Not(branch.condition) if branch.outcome else branch.condition
        assert solver.check(flipped) is CheckResult.UNSAT
