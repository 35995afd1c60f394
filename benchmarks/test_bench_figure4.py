"""Experiment "Figure 4": which behaviours does each analysis admit?

The paper's central qualitative claim: on the Figure 1 program,

* MCC and the Elwakil/Yang-style encoding (no transmission delays) admit only
  the Figure 4a pairing and judge the assertion ``A == Y`` safe;
* the paper's encoding admits Figure 4a *and* 4b and reports the violation.

This benchmark regenerates exactly that table and times each analysis.
"""

import pytest

from repro.baselines import ElwakilEncoder, ExplicitStateExplorer, MccChecker
from repro.encoding.variables import match_var
from repro.encoding.witness import Witness, decode_witness
from repro.program import run_program
from repro.smt import And, CheckResult, DpllTBackend, Eq, IntVal, Not
from repro.verification import Verdict, VerificationSession
from repro.workloads import figure1_program, figure4a_pairing, figure4b_pairing


def _enumerate_encoder_pairings(encoder, trace, cap=10):
    """Blocking-clause loop for baseline encoders (no session support)."""
    problem = encoder.encode(trace, properties=[])
    solver = DpllTBackend()
    solver.add_all(problem.assertions(include_property=False))
    pairings = []
    while solver.check() is CheckResult.SAT and len(pairings) < cap:
        witness = decode_witness(problem, solver.model())
        pairings.append(witness.pairing_description(problem))
        solver.add(
            Not(And([Eq(match_var(r), IntVal(s)) for r, s in witness.matching.items()]))
        )
    return pairings


@pytest.mark.benchmark(group="figure4")
def test_this_work_admits_both_pairings(benchmark, table_printer):
    program = figure1_program(assert_a_is_y=True)
    trace = run_program(program, seed=0).trace

    result = benchmark(lambda: VerificationSession(trace).verdict())
    assert result.verdict is Verdict.VIOLATION

    session = VerificationSession(trace)
    pairings = [
        Witness(matching=m).pairing_description(session.problem)
        for m in session.pairings()
    ]
    assert figure4a_pairing() in pairings
    assert figure4b_pairing() in pairings

    table_printer(
        "Figure 4 — this work (delays modelled)",
        ["pairing", "admitted"],
        [
            ["4a: A<-Y, C<-Z, B<-X", figure4a_pairing() in pairings],
            ["4b: A<-X, C<-Z, B<-Y", figure4b_pairing() in pairings],
            ["finds A==Y violation", result.verdict is Verdict.VIOLATION],
        ],
    )


@pytest.mark.benchmark(group="figure4")
def test_elwakil_admits_only_4a(benchmark, table_printer):
    trace = run_program(figure1_program(assert_a_is_y=True), seed=0).trace

    def solve():
        problem = ElwakilEncoder().encode(trace)
        solver = DpllTBackend()
        solver.add_all(problem.assertions())
        return solver.check()

    outcome = benchmark(solve)
    assert outcome is CheckResult.UNSAT  # misses the bug

    pairings = _enumerate_encoder_pairings(ElwakilEncoder(), trace)
    table_printer(
        "Figure 4 — Elwakil/Yang-style (delays ignored)",
        ["pairing", "admitted"],
        [
            ["4a: A<-Y, C<-Z, B<-X", figure4a_pairing() in pairings],
            ["4b: A<-X, C<-Z, B<-Y", figure4b_pairing() in pairings],
            ["finds A==Y violation", False],
        ],
    )
    assert figure4b_pairing() not in pairings


@pytest.mark.benchmark(group="figure4")
def test_mcc_admits_only_4a(benchmark, table_printer):
    program = figure1_program(assert_a_is_y=True)

    result = benchmark(lambda: MccChecker(program).check())
    assert not result.property_violated
    assert result.pairing_count() == 1

    ground_truth = ExplicitStateExplorer(program).explore()
    table_printer(
        "Figure 4 — MCC-style vs ground truth",
        ["analysis", "pairings admitted", "finds A==Y violation"],
        [
            ["MCC-style (no delays)", result.pairing_count(), result.property_violated],
            [
                "exhaustive with delays (ground truth)",
                ground_truth.pairing_count(),
                bool(ground_truth.assertion_failures),
            ],
        ],
    )
    assert ground_truth.pairing_count() == 2
