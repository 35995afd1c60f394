"""Experiment "parallel": sharded batch verification vs the serial path.

The workload is the shape the parallel subsystem is built for: a 32-trace
mixed batch in which the same eight questions recur under different
recording seeds (a nightly corpus, a fleet of identical services, repeated
user traffic).  Three claims are checked, all on counters:

* A ``jobs=4`` batch solves each of the 8 distinct questions exactly once
  (the 32 traces collapse onto 8 fingerprints) and spreads them over at
  least two worker processes.
* Verdicts are bit-identical to the serial path, in order.
* A warm on-disk cache answers the repeated batch with **zero** solver
  calls: every result arrives ``from_cache`` and the cache records no
  misses.

A scaling table (jobs = 1, 2, 4) with each lane's speedup over the serial
``verify_many`` loop is printed for the paper-style record.  The speedup's
floor (jobs=4 >= 2x serial) is gated by ``tools/bench_report.py``: a
wall-clock ratio depends on the host's cores and load.
"""

import os
import time

import pytest

from repro.program import run_program
from repro.verification import (
    ParallelVerifier,
    ResultCache,
    verify_many,
    verify_many_parallel,
)
from repro.workloads import (
    client_server,
    figure1_program,
    pipeline,
    racy_fanin,
    scatter_gather,
)

#: Eight distinct verification questions...
DISTINCT_PROGRAMS = [
    figure1_program(assert_a_is_y=True),
    racy_fanin(3, assert_first_from_sender0=True),
    racy_fanin(4, assert_first_from_sender0=True),
    pipeline(6),
    pipeline(8),
    scatter_gather(3, assert_order=True),
    client_server(3),
    racy_fanin(2, messages_per_sender=2),
]
#: ...recorded under four seeds each: 32 traces, 8 distinct fingerprints.
RECORDING_SEEDS = range(4)


def mixed_batch():
    return [
        run_program(program, seed=seed).trace
        for seed in RECORDING_SEEDS
        for program in DISTINCT_PROGRAMS
    ]


@pytest.mark.benchmark(group="parallel")
def test_parallel_batch_solves_each_question_once(benchmark, table_printer):
    batch = mixed_batch()
    assert len(batch) == 32

    start = time.perf_counter()
    serial = verify_many(batch)
    serial_seconds = time.perf_counter() - start

    rows = []
    lanes = {}
    for jobs in (1, 2, 4):
        with ParallelVerifier(jobs=jobs) as verifier:
            start = time.perf_counter()
            parallel = verifier.verify_many(batch)
            elapsed = time.perf_counter() - start
            # Per-worker session pools: a miss is one built-and-solved question.
            pools = [
                response["stats"]["pool"]
                for response in verifier.pool.broadcast({"op": "stats"})
            ]
        assert [r.verdict for r in parallel] == [r.verdict for r in serial]
        solved = sum(1 for r in parallel if not r.from_cache)
        lanes[jobs] = {
            "solved": solved,
            "sessions": sum(pool["misses"] for pool in pools),
            "workers": sum(1 for pool in pools if pool["misses"] + pool["hits"]),
        }
        rows.append(
            [
                f"jobs={jobs}",
                len(batch),
                solved,
                lanes[jobs]["workers"],
                f"{elapsed * 1000:.0f}",
                f"{serial_seconds / elapsed:.2f}x",
            ]
        )
    table_printer(
        f"32-trace mixed batch — serial verify_many {serial_seconds * 1000:.0f} ms "
        f"(host cpus: {os.cpu_count()})",
        ["path", "traces", "solver calls", "workers", "ms", "speedup vs serial"],
        rows,
    )

    distinct = len(DISTINCT_PROGRAMS)
    for jobs, lane in lanes.items():
        assert lane["solved"] == lane["sessions"] == distinct, (jobs, lane)
    assert lanes[4]["workers"] >= 2, lanes[4]

    result = benchmark.pedantic(
        lambda: verify_many_parallel(batch, jobs=4), rounds=3, iterations=1
    )
    assert len(result) == 32


@pytest.mark.benchmark(group="parallel")
def test_warm_cache_answers_batch_with_zero_solver_calls(
    tmp_path, benchmark, table_printer
):
    batch = mixed_batch()
    directory = str(tmp_path / "verdict-cache")

    cold_cache = ResultCache(directory=directory)
    start = time.perf_counter()
    cold = verify_many_parallel(batch, jobs=2, cache=cold_cache)
    cold_seconds = time.perf_counter() - start
    assert cold_cache.stores == len(DISTINCT_PROGRAMS)

    # A fresh process would start from an empty memory layer; model that
    # with a brand-new cache over the same directory.
    warm_cache = ResultCache(directory=directory)
    start = time.perf_counter()
    warm = verify_many_parallel(batch, jobs=2, cache=warm_cache)
    warm_seconds = time.perf_counter() - start

    assert [r.verdict for r in warm] == [r.verdict for r in cold]
    assert all(r.from_cache for r in warm), "warm batch must not solve"
    assert warm_cache.misses == 0, "warm batch must not miss"
    assert warm_cache.hits == len(batch)
    assert all(not r.solver_statistics for r in warm)

    table_printer(
        "Warm-cache repeat of the 32-trace batch",
        ["pass", "ms", "solver calls", "cache hits", "cache misses"],
        [
            ["cold", f"{cold_seconds * 1000:.0f}", cold_cache.stores, cold_cache.hits, cold_cache.misses],
            ["warm", f"{warm_seconds * 1000:.0f}", 0, warm_cache.hits, warm_cache.misses],
        ],
    )
    assert warm_seconds < cold_seconds

    final = benchmark.pedantic(
        lambda: verify_many_parallel(batch, jobs=2, cache=warm_cache),
        rounds=3,
        iterations=1,
    )
    assert all(r.from_cache for r in final)

