"""Experiment "session": encode-once / query-many vs the seed architecture.

The seed ``enumerate_pairings`` encoded the trace once but solved every
query of the blocking-clause loop with a cold DPLL(T) engine — each
``check`` re-preprocessed and re-CNF-converted the whole assertion set,
rebuilt the SAT solver, and re-learned every theory lemma from scratch.
:class:`VerificationSession` runs the same loop against one incremental
backend, so learned clauses, saved phases and theory lemmas carry over
between queries.

The shape to check: both paths admit exactly the same matchings, the
session encodes exactly once, and the per-query cost collapses (the
incremental path typically needs an order of magnitude fewer DPLL(T)
iterations on the coverage workloads).
"""

import time

import pytest

from repro.encoding.encoder import TraceEncoder
from repro.encoding.variables import match_var
from repro.encoding.witness import decode_witness
from repro.program import run_program
from repro.smt import And, CheckResult, Eq, IntVal, Not
from repro.smt.backend import DpllTBackend
from repro.verification import VerificationSession
from repro.workloads import figure1_program, racy_fanin


def seed_style_enumerate(trace, limit=None):
    """The seed architecture: one encode, then a cold backend per check."""
    problem = TraceEncoder().encode(trace, properties=[])
    assertions = list(problem.assertions(include_property=False))
    pairings = []
    iterations = 0
    while limit is None or len(pairings) < limit:
        backend = DpllTBackend()
        backend.add_all(assertions)
        result = backend.check()
        iterations += backend.engine.stats.iterations
        if result is not CheckResult.SAT:
            break
        witness = decode_witness(problem, backend.model())
        pairings.append(dict(witness.matching))
        assertions.append(
            Not(
                And(
                    [
                        Eq(match_var(r), IntVal(s))
                        for r, s in witness.matching.items()
                    ]
                )
            )
        )
    return pairings, iterations


class CountingEncoder(TraceEncoder):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.encode_calls = 0

    def encode(self, *args, **kwargs):
        self.encode_calls += 1
        return super().encode(*args, **kwargs)


def session_enumerate(trace):
    encoder = CountingEncoder()
    session = VerificationSession(trace, encoder=encoder)
    pairings = session.enumerate_pairings()
    assert encoder.encode_calls == 1, "session must encode exactly once"
    assert session.encode_count == 1
    stats = session.statistics()
    return pairings, stats.get("checks", 0)


def _canonical(pairings):
    return {tuple(sorted(p.items())) for p in pairings}


@pytest.mark.benchmark(group="session")
def test_session_enumeration_beats_seed_architecture(benchmark, table_printer):
    """Same matchings, one encode, measured speedup over the seed path."""
    rows = []
    speedup_workload = None
    for name, program in [
        ("figure1", figure1_program()),
        ("racy_fanin(3)", racy_fanin(3)),
    ]:
        trace = run_program(program, seed=0).trace

        start = time.perf_counter()
        cold_pairings, cold_iterations = seed_style_enumerate(trace)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm_pairings, warm_checks = session_enumerate(trace)
        warm_seconds = time.perf_counter() - start

        assert _canonical(warm_pairings) == _canonical(cold_pairings)
        assert len(warm_pairings) > 0
        rows.append(
            [
                name,
                len(warm_pairings),
                f"{cold_seconds * 1000:.1f}",
                f"{warm_seconds * 1000:.1f}",
                f"{cold_seconds / warm_seconds:.1f}x",
                cold_iterations,
                warm_checks,
            ]
        )
        if name == "racy_fanin(3)":
            speedup_workload = (cold_seconds, warm_seconds)

    table_printer(
        "Pairing enumeration — seed architecture vs session (encode once, solve warm)",
        [
            "workload",
            "matchings",
            "seed ms",
            "session ms",
            "speedup",
            "seed dpllt iters",
            "session checks",
        ],
        rows,
    )

    # The acceptance bar: the session path must be measurably faster than
    # the seed path on the coverage workload.
    cold_seconds, warm_seconds = speedup_workload
    assert cold_seconds > warm_seconds, (
        f"expected session enumeration to beat the seed path, got "
        f"seed={cold_seconds:.3f}s session={warm_seconds:.3f}s"
    )

    trace = run_program(racy_fanin(3), seed=0).trace
    result = benchmark.pedantic(
        lambda: session_enumerate(trace), rounds=3, iterations=1
    )
    assert len(result[0]) == 6


@pytest.mark.benchmark(group="session")
def test_session_mixed_query_stream(benchmark):
    """A production-shaped stream: verdict + feasibility + probes + coverage,
    all answered from one encoding."""
    program = racy_fanin(3, assert_first_from_sender0=True)

    def stream():
        session = VerificationSession.from_program(program, seed=0)
        verdict = session.verdict()
        ok = session.feasibility()
        pairings = session.enumerate_pairings()
        probes = [session.reachable(p) for p in pairings[:3]]
        return verdict, ok, pairings, probes

    verdict, ok, pairings, probes = benchmark.pedantic(stream, rounds=3, iterations=1)
    assert verdict.is_violation
    assert ok
    assert len(pairings) == 6
    assert all(probes)
