"""Experiment "solver scaling": SMT problem size and solve time vs workload size.

The paper does not report solver numbers (2-page short paper), but a
downstream user needs to know how the generated problems scale.  This
benchmark sweeps the two main axes:

* racy fan-in width (more racing messages to one endpoint — match-pair count
  grows quadratically, admitted behaviours factorially), and
* pipeline depth (more events but no races — everything stays linear),

reporting encoding size, SAT-abstraction size and solve time for each point.
"""

import time

import pytest

from repro.encoding import TraceEncoder
from repro.program import run_program
from repro.smt import DpllTBackend
from repro.verification import Verdict, VerificationSession
from repro.workloads import pipeline, racy_fanin


def _solve_stats(trace, properties=None):
    problem = TraceEncoder().encode(trace, properties=properties)
    solver = DpllTBackend()
    solver.add_all(problem.assertions(include_property=properties is None))
    start = time.perf_counter()
    outcome = solver.check()
    elapsed = time.perf_counter() - start
    stats = solver.statistics()
    return problem, outcome, elapsed, stats


@pytest.mark.benchmark(group="solver-scaling")
def test_fanin_width_scaling(benchmark, table_printer):
    rows = []
    for senders in (2, 3, 4, 5, 6):
        trace = run_program(
            racy_fanin(senders, assert_first_from_sender0=True), seed=0
        ).trace
        problem, outcome, elapsed, stats = _solve_stats(trace)
        rows.append(
            [
                senders,
                problem.size_summary()["candidate_pairs"],
                stats.get("sat_variables", 0),
                stats.get("sat_clauses", 0),
                outcome.value,
                f"{elapsed * 1000:.1f}",
            ]
        )
    table_printer(
        "Solver scaling — racy fan-in width (violable assertion)",
        ["senders", "cand. pairs", "SAT vars", "SAT clauses", "result", "solve ms"],
        rows,
    )

    trace = run_program(racy_fanin(5, assert_first_from_sender0=True), seed=0).trace
    benchmark(lambda: _solve_stats(trace)[1])


@pytest.mark.benchmark(group="solver-scaling")
def test_pipeline_depth_scaling(benchmark, table_printer):
    rows = []
    for depth in (3, 5, 8, 12):
        trace = run_program(pipeline(depth), seed=0).trace
        problem, outcome, elapsed, stats = _solve_stats(trace)
        rows.append(
            [
                depth,
                len(trace),
                problem.size_summary()["candidate_pairs"],
                outcome.value,
                f"{elapsed * 1000:.1f}",
            ]
        )
    table_printer(
        "Solver scaling — pipeline depth (safe assertion, expect UNSAT)",
        ["depth", "events", "cand. pairs", "result", "solve ms"],
        rows,
    )

    trace = run_program(pipeline(8), seed=0).trace
    benchmark(lambda: _solve_stats(trace)[1])


@pytest.mark.benchmark(group="solver-scaling")
def test_end_to_end_verification_scaling(benchmark, table_printer):
    """Whole-pipeline (record + encode + solve) cost per workload size."""
    rows = []
    for senders in (2, 4, 6):
        program = racy_fanin(senders, assert_first_from_sender0=True)
        start = time.perf_counter()
        result = VerificationSession.from_program(program, seed=0).verdict()
        elapsed = time.perf_counter() - start
        assert result.verdict is Verdict.VIOLATION
        rows.append(
            [
                senders,
                f"{result.encode_seconds * 1000:.1f}",
                f"{result.solve_seconds * 1000:.1f}",
                f"{elapsed * 1000:.1f}",
            ]
        )
    table_printer(
        "End-to-end verification cost (racy fan-in)",
        ["senders", "encode ms", "solve ms", "total ms"],
        rows,
    )

    program = racy_fanin(4, assert_first_from_sender0=True)
    benchmark.pedantic(
        lambda: VerificationSession.from_program(program, seed=0).verdict(),
        rounds=3,
        iterations=1,
    )
