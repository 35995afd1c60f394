"""Tests for the baseline analyses and their relationship to the paper's claims.

The central qualitative claim (paper §2, Figure 4) is a *strict coverage
ordering*:

* MCC and the Elwakil/Yang encoding, which ignore transmission delays, admit
  only the Figure 4a pairing and therefore miss the assertion violation;
* the paper's encoding (and exhaustive exploration with delays) admits both
  4a and 4b and finds the violation.
"""

import pytest

from repro.baselines import (
    ElwakilEncoder,
    ExplicitStateExplorer,
    MccChecker,
    SleepSetExplorer,
)
from repro.baselines.explicit import canonical_matching
from repro.program import run_program
from repro.smt import CheckResult, DpllTBackend
from repro.verification import Verdict, VerificationSession
from repro.workloads import (
    branching_consumer,
    figure1_program,
    nonblocking_fanin,
    pipeline,
    racy_fanin,
    scatter_gather,
)


@pytest.fixture(scope="module")
def figure1_with_assert():
    return figure1_program(assert_a_is_y=True)


@pytest.fixture(scope="module")
def figure1_trace():
    return run_program(figure1_program(assert_a_is_y=True), seed=0).trace


class TestMccBaseline:
    def test_mcc_misses_delay_dependent_bug(self, figure1_with_assert):
        result = MccChecker(figure1_with_assert).check()
        assert not result.property_violated
        assert result.pairing_count() == 1

    def test_mcc_still_finds_schedule_only_bugs(self):
        """Bugs that do not need message delays are found by MCC too."""
        program = racy_fanin(2, assert_first_from_sender0=True)
        result = MccChecker(program).check()
        assert result.property_violated

    def test_mcc_explores_all_interleavings(self, figure1_with_assert):
        result = MccChecker(figure1_with_assert).check()
        assert result.exploration.complete_runs >= 2
        assert result.exploration.deadlocks == 0

    def test_max_runs_truncation(self, figure1_with_assert):
        result = MccChecker(figure1_with_assert, max_runs=1).check()
        assert result.exploration.truncated or result.exploration.complete_runs <= 1


class TestExplicitExplorer:
    def test_finds_delay_dependent_bug(self, figure1_with_assert):
        result = ExplicitStateExplorer(figure1_with_assert).explore()
        assert "A-received-Y" in result.assertion_failures
        assert result.pairing_count() == 2
        assert result.deadlocks == 0

    def test_delay_free_mode_equals_mcc(self, figure1_with_assert):
        explicit = ExplicitStateExplorer(figure1_with_assert, delay_free=True).explore()
        mcc = MccChecker(figure1_with_assert).check()
        assert explicit.matchings == mcc.matchings

    def test_pipeline_has_single_behaviour(self):
        result = ExplicitStateExplorer(pipeline(3)).explore()
        assert result.pairing_count() == 1
        assert not result.assertion_failures

    def test_racy_fanin_behaviour_count(self):
        result = ExplicitStateExplorer(racy_fanin(3)).explore()
        assert result.pairing_count() == 6

    def test_deadlock_counted(self):
        from repro.program import ProgramBuilder

        builder = ProgramBuilder("stuck")
        builder.thread("a").recv("x")
        result = ExplicitStateExplorer(builder.build()).explore()
        assert result.deadlocks >= 1
        assert result.found_violation

    def test_summary_keys(self, figure1_with_assert):
        summary = ExplicitStateExplorer(figure1_with_assert).explore().summary()
        assert {"complete_runs", "distinct_matchings", "deadlocks"} <= set(summary)


class TestSleepSetExplorer:
    @pytest.mark.parametrize(
        "program",
        [
            figure1_program(assert_a_is_y=True),
            racy_fanin(2),
            racy_fanin(3),
            pipeline(3),
            nonblocking_fanin(2),
            branching_consumer(),
            scatter_gather(2),
        ],
        ids=lambda p: p.name,
    )
    def test_same_behaviours_as_exhaustive(self, program):
        """Sleep-set pruning must not lose behaviours (soundness of reduction)."""
        full = ExplicitStateExplorer(program).explore()
        reduced = SleepSetExplorer(program).explore()
        assert reduced.matchings == full.matchings
        assert reduced.assertion_failures == full.assertion_failures
        assert reduced.deadlocks == 0 if full.deadlocks == 0 else True

    def test_reduction_explores_fewer_transitions(self):
        program = racy_fanin(3)
        full = ExplicitStateExplorer(program).explore()
        reduced = SleepSetExplorer(program).explore()
        assert reduced.transitions_explored <= full.transitions_explored


class TestElwakilBaseline:
    def test_misses_delay_dependent_bug(self, figure1_trace):
        problem = ElwakilEncoder().encode(figure1_trace)
        solver = DpllTBackend()
        solver.add_all(problem.assertions())
        assert solver.check() is CheckResult.UNSAT

    def test_faithful_encoding_finds_it(self, figure1_trace):
        result = VerificationSession(figure1_trace).verdict()
        assert result.verdict is Verdict.VIOLATION

    def test_elwakil_admits_only_figure4a(self):
        """Pairing enumeration under the no-overtaking constraints yields 1."""
        trace = run_program(figure1_program(), seed=0).trace
        encoder = ElwakilEncoder()
        problem = encoder.encode(trace, properties=[])
        from repro.encoding.witness import decode_witness
        from repro.encoding.variables import match_var
        from repro.smt import And, Eq, IntVal, Not

        solver = DpllTBackend()
        solver.add_all(problem.assertions(include_property=False))
        pairings = []
        while solver.check() is CheckResult.SAT:
            witness = decode_witness(problem, solver.model())
            pairings.append(witness.matching)
            solver.add(
                Not(
                    And(
                        [
                            Eq(match_var(r), IntVal(s))
                            for r, s in witness.matching.items()
                        ]
                    )
                )
            )
            if len(pairings) > 5:
                break
        assert len(pairings) == 1

    def test_elwakil_still_finds_delay_independent_bugs(self):
        trace = run_program(racy_fanin(2, assert_first_from_sender0=True), seed=0).trace
        problem = ElwakilEncoder().encode(trace)
        solver = DpllTBackend()
        solver.add_all(problem.assertions())
        assert solver.check() is CheckResult.SAT


class TestCrossValidation:
    """Symbolic encoding vs exhaustive exploration on several workloads."""

    @pytest.mark.parametrize(
        "program",
        [
            figure1_program(),
            racy_fanin(2),
            racy_fanin(3),
            pipeline(3),
            nonblocking_fanin(2),
            scatter_gather(2),
        ],
        ids=lambda p: p.name,
    )
    def test_symbolic_pairings_equal_explicit_behaviours(self, program):
        run = run_program(program, seed=0)
        session = VerificationSession(run.trace, properties=[])
        symbolic = {
            canonical_matching(run.trace, m) for m in session.enumerate_pairings()
        }
        explicit = ExplicitStateExplorer(program).explore().matchings
        assert symbolic == explicit

    @pytest.mark.parametrize(
        "program, expect_violation",
        [
            (figure1_program(assert_a_is_y=True), True),
            (racy_fanin(3, assert_first_from_sender0=True), True),
            (pipeline(4), False),
            (scatter_gather(2), False),
            (nonblocking_fanin(2), True),
        ],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_verdicts_agree_with_ground_truth(self, program, expect_violation):
        symbolic = VerificationSession.from_program(program, seed=0).verdict()
        explicit = ExplicitStateExplorer(program).explore()
        assert (symbolic.verdict is Verdict.VIOLATION) == expect_violation
        assert bool(explicit.assertion_failures) == expect_violation
