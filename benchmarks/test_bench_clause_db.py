"""Benchmark: learned-clause database reduction and IDL bound propagation.

**ReduceDB gate.**  The session API answers every query of a
``verify_many`` / enumeration stream on one incremental DPLL(T) backend
(PR 1), and the online engine learns a clause per conflict (PR 4) — so a
long query stream used to grow its clause database without bound, and the
watch lists (the solver's innermost loop walks them on every propagation)
grew with it.  The gated workload distils that stream to its solver core:
one :class:`~repro.smt.backend.DpllTBackend` holding a delivery-order
model (a total order over send clocks, the paper's Figure 4 question
class) serves 64 scoped delivery-window queries — "can these sends be
delivered inside this window of one-less-than-enough slots?" — each an
UNSAT pigeonhole over difference atoms, exactly what a batched
``verify_many`` ordering stream issues check after check.  IDL bound
propagation is pinned off in *both* arms so the measurement isolates the
clause-database variable (propagation has its own gate below).

Gates, all on counters: **reduction fires** on the stream (rounds and
deletions > 0, none with reduction off), and the live learned-clause
count stays *bounded* — it plateaus around the reduction budget while
the unreduced arm keeps every clause forever (and while the enabled
arm's cumulative learned-clause counter keeps growing, proving the
plateau comes from deletion, not from learning less).  The wall-clock
ratio of the two arms is printed here; its "reduction must not tax the
stream" floor (>= 0.8x) is gated by ``tools/bench_report.py``, because a
timing ratio depends on the host's load.

**IDL propagation gate.**  On the ordering workload the bound-propagation
lane must convert theory conflicts into unit propagations: propagation
count > 0 and strictly fewer theory conflicts than with the lane
disabled, at an identical verdict.

A quick sanity lane also pushes a real 64-trace ``verify_many`` batch
through both configurations: verdicts must be identical and reduction
must not tax light traffic (small checks never reach the budget, so the
reducer must stay out of the way).
"""

import itertools
import time

import pytest

from repro.program.interpreter import run_program
from repro.smt.backend import DpllTBackend
from repro.smt.dpllt import CheckResult
from repro.smt.terms import IntVal, IntVar, Le, Lt, Or
from repro.verification.session import verify_many
from repro.workloads.generators import racy_fanin

NUM_CLOCKS = 7
NUM_QUERIES = 64
NUM_WINDOWS = 8  # distinct window anchors; the stream cycles through them


def _delivery_order_base(backend):
    """The persistent model: totally ordered clocks, loosely bounded."""
    clocks = [IntVar(f"clk{i}") for i in range(NUM_CLOCKS)]
    for i, j in itertools.combinations(range(NUM_CLOCKS), 2):
        backend.add(Or(Lt(clocks[i], clocks[j]), Lt(clocks[j], clocks[i])))
    for clock in clocks:
        backend.add(Le(IntVal(0), clock))
        backend.add(Le(clock, IntVal(3 * NUM_CLOCKS)))
    return clocks


def run_stream(reduce_db: bool):
    """64 scoped delivery-window queries on one incremental backend."""
    backend = DpllTBackend(reduce_db=reduce_db, idl_propagation=False)
    clocks = _delivery_order_base(backend)
    live_trace = []
    start = time.perf_counter()
    for query in range(NUM_QUERIES):
        anchor = query % NUM_WINDOWS
        backend.push()
        for clock in clocks:
            backend.add(Le(IntVal(anchor), clock))
            backend.add(Le(clock, IntVal(anchor + NUM_CLOCKS - 2)))
        outcome = backend.check()
        assert outcome is CheckResult.UNSAT, (reduce_db, query, outcome)
        backend.pop()
        live_trace.append(backend.engine._sat.num_learned)
    seconds = time.perf_counter() - start
    sat_stats = backend.engine._sat.stats
    return {
        "seconds": seconds,
        "live_trace": live_trace,
        "peak_live": sat_stats.max_live_learned,
        "learned_total": sat_stats.learned_clauses,
        "reduce_rounds": sat_stats.reduce_db_rounds,
        "clauses_deleted": sat_stats.clauses_deleted,
        "conflicts": sat_stats.conflicts,
        "decisions": sat_stats.decisions,
    }


@pytest.fixture(scope="module")
def stream_results():
    return {
        "enabled": run_stream(reduce_db=True),
        "disabled": run_stream(reduce_db=False),
    }


@pytest.mark.benchmark(group="clause-db")
def test_reduce_db_fires_on_the_stream(stream_results, table_printer):
    """Reduction fires (rounds > 0, deletions > 0) on the stream.  The two
    arms tie on wall time at this workload size — the reducer's job here
    is bounding memory (next test); the printed ratio's no-overhead floor
    is gated by ``tools/bench_report.py``."""
    enabled = stream_results["enabled"]
    disabled = stream_results["disabled"]
    speedup = disabled["seconds"] / enabled["seconds"]

    table_printer(
        f"ReduceDB on a {NUM_QUERIES}-query delivery-window stream "
        f"({NUM_CLOCKS} clocks, one incremental backend)",
        ["reduction", "seconds", "peak live", "learned total", "rounds", "deleted"],
        [
            [
                "enabled",
                f"{enabled['seconds']:.2f}",
                enabled["peak_live"],
                enabled["learned_total"],
                enabled["reduce_rounds"],
                enabled["clauses_deleted"],
            ],
            [
                "disabled",
                f"{disabled['seconds']:.2f}",
                disabled["peak_live"],
                disabled["learned_total"],
                disabled["reduce_rounds"],
                disabled["clauses_deleted"],
            ],
            ["speedup", f"{speedup:.2f}x", "", "", "", ""],
        ],
    )

    assert enabled["reduce_rounds"] > 0
    assert enabled["clauses_deleted"] > 0
    assert disabled["reduce_rounds"] == 0
    assert disabled["clauses_deleted"] == 0


@pytest.mark.benchmark(group="clause-db")
def test_live_clause_count_stays_bounded(stream_results):
    """The live set plateaus under reduction instead of growing without
    bound: well under the unreduced peak, flat across the second half of
    the stream, while clauses keep being learned (so the plateau is the
    reducer's doing, not a quiet search)."""
    enabled = stream_results["enabled"]
    disabled = stream_results["disabled"]

    assert enabled["peak_live"] <= 0.66 * disabled["peak_live"], (
        enabled["peak_live"],
        disabled["peak_live"],
    )
    half = NUM_QUERIES // 2
    mid_live = max(enabled["live_trace"][:half])
    end_live = max(enabled["live_trace"])
    assert end_live <= 1.15 * mid_live, (mid_live, end_live)
    # The stream kept learning long after the plateau was reached.
    assert enabled["learned_total"] > 2 * enabled["peak_live"]


@pytest.mark.benchmark(group="clause-db")
def test_verify_many_stream_verdicts_and_overhead(table_printer):
    """A real 64-trace verify_many batch: identical verdicts with and
    without reduction, and no material overhead on light traffic."""
    traces = [
        run_program(
            racy_fanin(3 + (seed % 2), assert_first_from_sender0=True),
            seed=seed,
        ).trace
        for seed in range(NUM_QUERIES)
    ]
    start = time.perf_counter()
    enabled = verify_many(traces)
    enabled_seconds = time.perf_counter() - start
    start = time.perf_counter()
    disabled = verify_many(traces, reduce_db=False)
    disabled_seconds = time.perf_counter() - start

    assert [r.verdict for r in enabled] == [r.verdict for r in disabled]
    table_printer(
        "verify_many x64 (racy fan-in recordings)",
        ["reduction", "seconds"],
        [
            ["enabled", f"{enabled_seconds:.2f}"],
            ["disabled", f"{disabled_seconds:.2f}"],
        ],
    )
    # Light checks never reach the budget; the reducer must cost nothing.
    assert enabled_seconds <= 1.5 * disabled_seconds


@pytest.mark.benchmark(group="idl-propagation")
def test_idl_propagation_converts_conflicts_to_propagations(table_printer):
    """The ordering workload, propagation lane on vs off: entailed bounds
    must arrive as unit propagations (count > 0) and theory conflicts must
    drop strictly below the veto-only run's."""
    clocks = [IntVar(f"snd{i}") for i in range(6)]
    terms = []
    for i, j in itertools.combinations(range(6), 2):
        terms.append(Or(Lt(clocks[i], clocks[j]), Lt(clocks[j], clocks[i])))
    for clock in clocks:
        terms.append(Le(IntVal(0), clock))
        terms.append(Le(clock, IntVal(4)))

    results = {}
    for label, flag in (("on", True), ("off", False)):
        backend = DpllTBackend(idl_propagation=flag)
        backend.add_all(terms)
        start = time.perf_counter()
        verdict = backend.check()
        results[label] = (time.perf_counter() - start, verdict, backend.engine.stats)

    on_seconds, on_verdict, on_stats = results["on"]
    off_seconds, off_verdict, off_stats = results["off"]
    table_printer(
        "IDL bound propagation on the delivery-window ordering workload",
        ["propagation", "seconds", "theory conflicts", "idl propagations", "verdict"],
        [
            [
                "on",
                f"{on_seconds:.2f}",
                on_stats.theory_conflicts,
                on_stats.theory_propagations_idl,
                on_verdict.value,
            ],
            [
                "off",
                f"{off_seconds:.2f}",
                off_stats.theory_conflicts,
                off_stats.theory_propagations_idl,
                off_verdict.value,
            ],
        ],
    )

    assert on_verdict is CheckResult.UNSAT and off_verdict is CheckResult.UNSAT
    assert on_stats.theory_propagations_idl > 0
    assert off_stats.theory_propagations_idl == 0
    assert on_stats.theory_conflicts < off_stats.theory_conflicts
