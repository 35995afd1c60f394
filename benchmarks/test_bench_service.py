"""Experiment "service": the warm daemon against a cold request stream.

The workload is the service's design target: a 64-query mixed-fingerprint
stream (8 distinct verification questions × 8 recording seeds) pushed by
concurrent clients into a ``jobs=4`` worker pool.  Two acceptance gates:

* **Warm pool.**  The second pass over the stream records nothing (every
  spec's recording is memoised in its worker) and every query finds its
  warm session: 64 pool hits, no new pool misses.  A pool hit skips
  recording, fingerprinting and encoding, and lands on an incremental
  backend that has already learned the instance.  The wall-clock ratio
  (warm >= 2x the cold pass's queries/sec) depends on the host's cores
  and load, so ``tools/bench_report.py`` gates it, not pytest.
* **Deadline isolation.**  A request that blows its deadline (a stalling
  backend that never polls the soft deadline) must come back
  ``UNKNOWN(reason=timeout)`` within **2x** the deadline — the worker is
  killed and respawned — and the very next request on the same daemon must
  succeed.  One poisoned query costs one worker process, never the daemon.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.service import protocol
from repro.service.server import VerificationService

#: Eight distinct verification questions (distinct trace fingerprints)...
DISTINCT_SPECS = [
    {"workload": "figure1"},
    {"workload": "racy_fanin", "params": {"senders": 2}},
    {"workload": "racy_fanin", "params": {"senders": 3}},
    {"workload": "racy_fanin", "params": {"senders": 4}},
    {"workload": "pipeline", "params": {"senders": 6}},
    {"workload": "scatter_gather", "params": {"senders": 3}},
    {"workload": "client_server", "params": {"senders": 3}},
    {"workload": "token_ring", "params": {"senders": 4}},
]
#: ...streamed under eight recording seeds each: 64 queries.
SEEDS = range(8)


def mixed_stream():
    return [
        dict(spec, seed=seed, op="verify")
        for seed in SEEDS
        for spec in DISTINCT_SPECS
    ]


def push_stream(service, queries, client_threads=8):
    """Submit the stream through concurrent clients; returns (seconds, verdicts)."""

    def one(query):
        response = service.handle_json(
            protocol.make_request("verify", query, request_id=1)
        )
        assert "error" not in response, response
        return response["result"]["result"]["verdict"]

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=client_threads) as executor:
        verdicts = list(executor.map(one, queries))
    return time.perf_counter() - start, verdicts


@pytest.mark.benchmark(group="service")
def test_warm_pool_beats_cold_stream(benchmark, table_printer):
    # The benchmark is only meaningful injection-free: the fault
    # harness's hot-path cost must be exactly one module-global read.
    assert faults.ACTIVE is None, "fault plan leaked into the benchmark run"
    queries = mixed_stream()
    assert len(queries) == 64
    service = VerificationService(jobs=4)

    def stats(request_id):
        return service.handle_json(
            protocol.make_request("stats", request_id=request_id)
        )["result"]

    try:
        cold_seconds, cold_verdicts = push_stream(service, queries)
        cold = stats(2)
        warm_seconds, warm_verdicts = push_stream(service, queries)
        warm = stats(3)

        assert warm_verdicts == cold_verdicts
        # The cold pass records each (spec, seed) once, in its affinity worker.
        assert cold["recordings"]["misses"] == len(queries)
        # The warm pass records nothing and finds every session warm.
        assert warm["recordings"]["misses"] == cold["recordings"]["misses"]
        assert warm["recordings"]["hits"] - cold["recordings"]["hits"] == len(queries)
        assert warm["pool"]["hits"] - cold["pool"]["hits"] == len(queries)
        assert warm["pool"]["misses"] == cold["pool"]["misses"]
        assert warm["pool"]["evictions"] == 0

        cold_qps = len(queries) / cold_seconds
        warm_qps = len(queries) / warm_seconds
        table_printer(
            "64-query mixed-fingerprint stream, jobs=4",
            ["pass", "seconds", "queries/sec", "pool hits", "pool misses", "recordings"],
            [
                [
                    "cold",
                    f"{cold_seconds:.2f}",
                    f"{cold_qps:.0f}",
                    cold["pool"]["hits"],
                    cold["pool"]["misses"],
                    cold["recordings"]["misses"],
                ],
                [
                    "warm",
                    f"{warm_seconds:.2f}",
                    f"{warm_qps:.0f}",
                    warm["pool"]["hits"] - cold["pool"]["hits"],
                    warm["pool"]["misses"] - cold["pool"]["misses"],
                    warm["recordings"]["misses"] - cold["recordings"]["misses"],
                ],
            ],
        )
        print(f"warm/cold throughput: {warm_qps / cold_qps:.2f}x")

        benchmark.pedantic(
            lambda: push_stream(service, queries), rounds=3, iterations=1
        )
    finally:
        service.close()


@pytest.mark.benchmark(group="service")
def test_deadline_kill_bounds_latency_and_spares_the_daemon(benchmark):
    from repro.smt.backend import _REGISTRY, DpllTBackend, register_backend
    from repro.smt.dpllt import CheckResult

    class StallingBackend(DpllTBackend):
        """Never polls the soft deadline — the hard worker kill must fire."""

        name = "bench-stalling"

        def check(self, *assumptions):
            time.sleep(60.0)
            return CheckResult.UNKNOWN

    register_backend("bench-stalling", StallingBackend, replace=True)
    deadline_s = 2.0
    try:
        # Workers fork from this process, inheriting the stalling backend.
        service = VerificationService(jobs=2)
        try:
            start = time.perf_counter()
            response = service.handle_json(
                protocol.make_request(
                    "verify",
                    {
                        "workload": "figure1",
                        "backend": "bench-stalling",
                        "timeout_s": deadline_s,
                    },
                    request_id=1,
                )
            )
            elapsed = time.perf_counter() - start
            result = response["result"]["result"]
            assert result["verdict"] == "unknown"
            assert result["unknown_reason"] == "timeout"
            assert elapsed <= 2.0 * deadline_s, (
                f"timeout must surface within 2x the deadline, took {elapsed:.2f}s"
            )

            # The daemon is unharmed: the killed worker was respawned and
            # the next request (same routing spec, default backend) solves.
            follow_up = service.handle_json(
                protocol.make_request("verify", {"workload": "figure1"}, request_id=2)
            )
            assert follow_up["result"]["result"]["verdict"] == "violation"

            stats = service.handle_json(
                protocol.make_request("stats", request_id=3)
            )["result"]
            assert stats["worker_kills"] >= 1
            assert stats["timeouts"] >= 1

            benchmark.pedantic(
                lambda: service.handle_json(
                    protocol.make_request(
                        "verify", {"workload": "figure1"}, request_id=4
                    )
                ),
                rounds=3,
                iterations=1,
            )
        finally:
            service.close()
    finally:
        _REGISTRY.pop("bench-stalling", None)
