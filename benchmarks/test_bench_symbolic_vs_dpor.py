"""Experiment "Fusion vs Inspect motivation": symbolic vs explicit-state runtime.

The paper's introduction motivates SMT-based modelling with Fusion's large
speed-ups over the DPOR-based Inspect.  This benchmark reproduces the same
*shape* on our substrate: verification wall-clock time of

* the symbolic verifier (one SMT query per property),
* exhaustive explicit-state exploration with delays (ground truth),
* the sleep-set (DPOR-style) reduced exploration,

as the number of racing senders grows.  The expected shape: the explicit
explorers' cost grows with the factorial number of interleavings while the
symbolic query grows much more slowly — the crossover is at very small N.
"""

import time

import pytest

from repro.baselines import ExplicitStateExplorer, SleepSetExplorer
from repro.verification import Verdict, VerificationSession
from repro.workloads import racy_fanin


def _symbolic_seconds(program) -> float:
    start = time.perf_counter()
    result = VerificationSession.from_program(program, seed=0).verdict()
    assert result.verdict is Verdict.VIOLATION
    return time.perf_counter() - start


def _explicit_seconds(program) -> float:
    start = time.perf_counter()
    result = ExplicitStateExplorer(program).explore()
    assert result.assertion_failures
    return time.perf_counter() - start


def _dpor_seconds(program) -> float:
    start = time.perf_counter()
    result = SleepSetExplorer(program).explore()
    assert result.assertion_failures
    return time.perf_counter() - start


@pytest.mark.benchmark(group="symbolic-vs-explicit")
def test_symbolic_verification_scaling(benchmark):
    program = racy_fanin(4, assert_first_from_sender0=True)
    result = benchmark(
        lambda: VerificationSession.from_program(program, seed=0).verdict()
    )
    assert result.verdict is Verdict.VIOLATION


@pytest.mark.benchmark(group="symbolic-vs-explicit")
def test_explicit_exploration_scaling(benchmark):
    program = racy_fanin(3, assert_first_from_sender0=True)
    result = benchmark.pedantic(
        lambda: ExplicitStateExplorer(program).explore(), rounds=3, iterations=1
    )
    assert result.assertion_failures


@pytest.mark.benchmark(group="symbolic-vs-explicit")
def test_dpor_exploration_scaling(benchmark):
    program = racy_fanin(3, assert_first_from_sender0=True)
    result = benchmark.pedantic(
        lambda: SleepSetExplorer(program).explore(), rounds=3, iterations=1
    )
    assert result.assertion_failures


@pytest.mark.benchmark(group="symbolic-vs-explicit")
def test_runtime_comparison_table(benchmark, table_printer):
    """The headline series: wall-clock per tool as the race widens."""
    rows = []
    for senders in (2, 3, 4):
        program = racy_fanin(senders, assert_first_from_sender0=True)
        symbolic = _symbolic_seconds(program)
        if senders <= 3:
            explicit = _explicit_seconds(program)
            dpor = _dpor_seconds(program)
            explicit_txt = f"{explicit * 1000:.0f}"
            dpor_txt = f"{dpor * 1000:.0f}"
        else:
            explicit_txt = "(skipped: interleaving explosion)"
            dpor_txt = "(skipped)"
        rows.append([senders, f"{symbolic * 1000:.0f}", dpor_txt, explicit_txt])

    table_printer(
        "Verification wall-clock (ms) — symbolic vs explicit-state, racy fan-in",
        ["senders", "symbolic (this work)", "sleep-set DPOR", "exhaustive"],
        rows,
    )

    # Timed entry for the benchmark database: the largest symbolic instance.
    program = racy_fanin(4, assert_first_from_sender0=True)
    benchmark.pedantic(
        lambda: VerificationSession.from_program(program, seed=0).verdict(),
        rounds=3,
        iterations=1,
    )
