"""Experiment: overhead of the partial-match (deadlock) encoding.

The partial-match extension adds an unmatched indicator per receive,
executed guards inside every match disjunct and one blocking-semantics
implication per receive.  This benchmark gates the cost on the paper's
Figure 1 workload: the partial-match problem must stay under 2x the base
encoding, so deadlock checking remains in the same complexity class as
the paper's safety analysis.  The gate counts constraints
(``size_summary``); the encode-time ratio is printed, and its < 2x bound
is gated by ``tools/bench_report.py``, because a wall-clock ratio depends
on the host's load.

A second table reports how both encodings and their solve times grow on the
fan-in family, the shape whose candidate sets grow fastest.
"""

import time

import pytest

from repro.encoding import DeadlockProperty, EncoderOptions, TraceEncoder
from repro.program import run_program
from repro.smt.backend import create_backend
from repro.workloads import figure1_program, racy_fanin

#: The acceptance gate: partial-match encoding < 2x the base encoding.
MAX_OVERHEAD = 2.0
#: Timing repetitions (single encodes are microseconds; amortise noise).
REPEATS = 200


def encode_seconds(trace, options, properties, repeats=REPEATS) -> float:
    encoder = TraceEncoder(options)
    start = time.perf_counter()
    for _ in range(repeats):
        encoder.encode(trace, properties=properties)
    return (time.perf_counter() - start) / repeats


def _constraints(problem) -> int:
    summary = problem.size_summary()
    return sum(v for k, v in summary.items() if k.endswith("_constraints"))


@pytest.mark.benchmark(group="deadlock")
def test_partial_match_encoding_overhead_gate(table_printer):
    """Partial-match encoding stays < 2x the base encoding on Figure 1."""
    trace = run_program(figure1_program(assert_a_is_y=True), seed=0).trace
    arms = [
        ("base (PMatchPairs)", EncoderOptions(), None),
        (
            "partial (PMatchPartial)",
            EncoderOptions(partial_matches=True),
            [DeadlockProperty()],
        ),
    ]
    sizes, seconds = [], []
    for _, options, properties in arms:
        problem = TraceEncoder(options).encode(trace, properties=properties)
        sizes.append(_constraints(problem))
        seconds.append(encode_seconds(trace, options, properties))
    size_ratio = sizes[1] / sizes[0]
    table_printer(
        "Figure 1: base vs partial-match encoding",
        ["encoding", "constraints", "mean encode (us)", "time overhead"],
        [
            [label, size, f"{s * 1e6:.1f}", f"{s / seconds[0]:.2f}x"]
            for (label, _, _), size, s in zip(arms, sizes, seconds)
        ],
    )
    assert size_ratio < MAX_OVERHEAD, (
        f"partial-match encoding has {size_ratio:.2f}x the base encoding's "
        f"constraints (gate: < {MAX_OVERHEAD}x)"
    )


@pytest.mark.benchmark(group="deadlock")
def test_deadlock_check_scaling(table_printer):
    """Problem sizes and end-to-end deadlock-check time on fan-in growth."""
    rows = []
    for senders in (2, 4, 6):
        trace = run_program(racy_fanin(senders), seed=0).trace
        problem = TraceEncoder(EncoderOptions(partial_matches=True)).encode(
            trace, properties=[DeadlockProperty()]
        )
        backend = create_backend(None)
        backend.add_all(problem.assertions())
        start = time.perf_counter()
        outcome = backend.check()
        solve = time.perf_counter() - start
        summary = problem.size_summary()
        rows.append(
            [
                senders,
                summary["match_constraints"],
                summary["blocking_constraints"],
                f"{solve * 1000:.1f}",
                outcome.name,
            ]
        )
        assert outcome.name == "UNSAT"  # racy_fanin is deadlock-free
    table_printer(
        "Deadlock check on racy_fanin(n)",
        ["senders", "match", "blocking", "solve (ms)", "verdict"],
        rows,
    )
