"""Experiment "Figure 1": the paper's example program end to end.

Regenerates the running example: record a trace of the Figure 1 program,
encode it, solve it, and report the full pipeline cost.  The shape to check
against the paper: the assertion ``A == Y`` is *violable* (verdict
"violation"), because the encoding models transmission delays.
"""

import pytest

from repro.program import run_program
from repro.verification import Verdict, VerificationSession
from repro.workloads import figure1_program


@pytest.mark.benchmark(group="figure1")
def test_record_trace(benchmark):
    """Cost of obtaining the input trace (one concrete simulated run)."""
    program = figure1_program(assert_a_is_y=True)
    run = benchmark(lambda: run_program(program, seed=0))
    assert run.ok


@pytest.mark.benchmark(group="figure1")
def test_full_verification_pipeline(benchmark, table_printer):
    """Record + encode + solve + decode for the Figure 1 assertion."""
    program = figure1_program(assert_a_is_y=True)
    result = benchmark(
        lambda: VerificationSession.from_program(program, seed=0).verdict()
    )
    assert result.verdict is Verdict.VIOLATION

    summary = result.problem.size_summary()
    table_printer(
        "Figure 1 pipeline (paper: assertion is violable via the Figure 4b behaviour)",
        ["metric", "value"],
        [
            ["verdict", result.verdict.value],
            ["trace events", summary["events"]],
            ["candidate match pairs", summary["candidate_pairs"]],
            ["order constraints", summary["order_constraints"]],
            ["match constraints", summary["match_constraints"]],
            ["unique constraints", summary["unique_constraints"]],
            ["encode time (ms)", f"{result.encode_seconds * 1000:.2f}"],
            ["solve time (ms)", f"{result.solve_seconds * 1000:.2f}"],
            ["counterexample pairing", result.witness.pairing_description(result.problem)],
        ],
    )


@pytest.mark.benchmark(group="figure1")
def test_solver_only(benchmark):
    """Isolated SMT solving cost for the Figure 1 problem."""
    from repro.encoding import TraceEncoder
    from repro.smt import DpllTBackend

    trace = run_program(figure1_program(assert_a_is_y=True), seed=0).trace
    problem = TraceEncoder().encode(trace)
    assertions = problem.assertions()

    def solve():
        solver = DpllTBackend()
        solver.add_all(assertions)
        return solver.check()

    outcome = benchmark(solve)
    assert outcome.name == "SAT"
