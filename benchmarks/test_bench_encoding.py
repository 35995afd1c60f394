"""Experiment "Figures 2 & 3": cost and size of the match-pair / uniqueness encoding.

Times the construction of ``PMatchPairs`` (Figure 2) and ``PUnique``
(Figure 3) and reports how the generated problem grows with the number of
racing messages, including the ablation between the literal all-pairs
uniqueness loop of Figure 3 and the pruned (intersecting-candidates-only)
variant.
"""

import pytest

from repro.encoding import (
    EncoderOptions,
    TraceEncoder,
    match_pair_constraints,
    uniqueness_constraints,
    uniqueness_constraints_pruned,
)
from repro.matching import endpoint_match_pairs
from repro.program import run_program
from repro.workloads import racy_fanin


@pytest.fixture(scope="module")
def fanin_traces():
    return {n: run_program(racy_fanin(n), seed=0).trace for n in (2, 4, 6, 8)}


@pytest.mark.benchmark(group="encoding")
def test_match_pair_encoding_time(benchmark, fanin_traces):
    """Figure 2 algorithm on an 8-sender fan-in trace."""
    trace = fanin_traces[8]
    pairs = endpoint_match_pairs(trace)
    constraints = benchmark(lambda: match_pair_constraints(trace, pairs))
    assert len(constraints) == 8


@pytest.mark.benchmark(group="encoding")
def test_uniqueness_encoding_time(benchmark, fanin_traces):
    """Figure 3 algorithm on an 8-sender fan-in trace."""
    pairs = endpoint_match_pairs(fanin_traces[8])
    constraints = benchmark(lambda: uniqueness_constraints(pairs))
    assert len(constraints) == 8 * 7 // 2


@pytest.mark.benchmark(group="encoding")
def test_full_encoding_time(benchmark, fanin_traces, table_printer):
    """Whole-problem encoding cost, plus the size-growth table."""
    encoder = TraceEncoder()
    trace = fanin_traces[8]
    problem = benchmark(lambda: encoder.encode(trace, properties=[]))
    assert problem.size_summary()["receives"] == 8

    rows = []
    for n, t in sorted(fanin_traces.items()):
        summary = TraceEncoder().encode(t, properties=[]).size_summary()
        rows.append(
            [
                n,
                summary["events"],
                summary["candidate_pairs"],
                summary["order_constraints"],
                summary["match_constraints"],
                summary["unique_constraints"],
            ]
        )
    table_printer(
        "Encoding size growth (racy fan-in, N senders x 1 message)",
        ["N", "events", "cand. pairs", "|POrder|", "|PMatchPairs|", "|PUnique|"],
        rows,
    )


@pytest.mark.benchmark(group="encoding")
def test_uniqueness_pruning_ablation(benchmark, table_printer):
    """Ablation: Figure 3 verbatim vs pruned uniqueness on a mixed workload."""
    from repro.workloads import client_server

    trace = run_program(client_server(4), seed=0).trace
    pairs = endpoint_match_pairs(trace)

    benchmark(lambda: uniqueness_constraints_pruned(pairs))

    full = uniqueness_constraints(pairs)
    pruned = uniqueness_constraints_pruned(pairs)
    table_printer(
        "PUnique ablation (client/server, 4 clients)",
        ["variant", "constraints"],
        [
            ["Figure 3 (all pairs)", len(full)],
            ["pruned (overlapping candidates only)", len(pruned)],
        ],
    )
    assert len(pruned) <= len(full)


@pytest.mark.benchmark(group="encoding")
def test_clock_bounds_ablation(benchmark, table_printer):
    """Ablation: effect of the optional clock-range constraints on solve time."""
    import time

    from repro.smt import DpllTBackend

    trace = run_program(racy_fanin(5, assert_first_from_sender0=True), seed=0).trace
    rows = []
    for label, options in [
        ("with clock bounds", EncoderOptions(include_clock_bounds=True)),
        ("without clock bounds", EncoderOptions(include_clock_bounds=False)),
    ]:
        problem = TraceEncoder(options).encode(trace)
        start = time.perf_counter()
        solver = DpllTBackend()
        solver.add_all(problem.assertions())
        outcome = solver.check()
        elapsed = time.perf_counter() - start
        rows.append([label, len(problem.assertions()), outcome.value, f"{elapsed*1000:.1f} ms"])
    table_printer(
        "Clock-bound ablation (racy fan-in, 5 senders, racy assertion)",
        ["variant", "assertions", "result", "solve time"],
        rows,
    )

    problem = TraceEncoder(EncoderOptions(include_clock_bounds=True)).encode(trace)

    def solve():
        solver = DpllTBackend()
        solver.add_all(problem.assertions())
        return solver.check()

    benchmark(solve)
