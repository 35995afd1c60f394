"""Worker-crash recovery in the pool: re-dispatch-once, poison-query
quarantine, and the generation-guarded respawn (the kill/crash race).

Plans are installed *before* the pool is built so forked workers inherit
them; fault counters are per-process, so a respawned worker restarts its
rule schedule at zero — rules use ``match=<workload>`` to keep stats
broadcasts (tag ``"None"``) off the injection sites.
"""

import threading

import pytest

from repro import faults
from repro.service import protocol
from repro.service.pool import POISON_CRASH_LIMIT, WorkerPool
from repro.service.server import VerificationService
from repro.utils.errors import ServiceError


def _verify(pool, workload, timeout_s=None, **spec):
    return pool.submit(
        dict({"op": "verify", "workload": workload}, **spec), timeout_s=timeout_s
    )


class TestRedispatch:
    def test_crash_before_solve_is_redispatched(self):
        # The second figure1 request kills its worker before solving; the
        # pool respawns and re-sends, and the caller sees only verdicts.
        faults.install("pool.worker.request:exit:match=figure1,after=1,max=1")
        pool = WorkerPool(jobs=1)
        try:
            assert _verify(pool, "figure1")["result"]["verdict"] == "violation"
            response = _verify(pool, "figure1")
            assert response["result"]["verdict"] == "violation"
            assert pool.worker_crashes == 1
            assert pool.redispatches == 1
            stats = pool.statistics()
            assert stats["worker_crashes"] == 1
            assert stats["redispatches"] == 1
        finally:
            pool.close()

    def test_crash_after_solve_before_reply_is_redispatched(self):
        # Death between solving and answering: the result is lost with the
        # worker, and the re-dispatch must solve it again from scratch.
        faults.install("pool.worker.reply:exit:match=figure1,after=1,max=1")
        pool = WorkerPool(jobs=1)
        try:
            assert _verify(pool, "figure1")["result"]["verdict"] == "violation"
            assert _verify(pool, "figure1")["result"]["verdict"] == "violation"
            assert pool.worker_crashes == 1
            assert pool.redispatches == 1
        finally:
            pool.close()


class TestPoisonQuery:
    def test_poison_spec_converges_to_unknown(self):
        # figure1 kills every worker incarnation that touches it.  The
        # ledger lets it burn POISON_CRASH_LIMIT workers, then answers
        # UNKNOWN(worker_crash) without spawning anything.
        faults.install("pool.worker.request:exit:match=figure1,max=0")
        pool = WorkerPool(jobs=1)
        try:
            # Submit 1: crash + redispatch-crash exhausts both attempts.
            with pytest.raises(ServiceError):
                _verify(pool, "figure1")
            assert pool.worker_crashes == 2
            # Submit 2: third crash trips the limit mid-dispatch.
            response = _verify(pool, "figure1")
            assert response["result"]["verdict"] == "unknown"
            assert response["result"]["unknown_reason"] == "worker_crash"
            assert pool.poisoned == 1
            assert pool.worker_crashes == POISON_CRASH_LIMIT
            # Submit 3: quarantined before any worker is risked.
            response = _verify(pool, "figure1")
            assert response["result"]["unknown_reason"] == "worker_crash"
            assert pool.worker_crashes == POISON_CRASH_LIMIT
            # Other specs on the same (respawned) worker are unharmed.
            healthy = _verify(pool, "pipeline", params={"senders": 3})
            assert healthy["result"]["verdict"] == "safe"
        finally:
            pool.close()

    def test_poison_ledger_is_per_spec(self):
        pool = WorkerPool(jobs=1)
        try:
            key_a = pool._spec_key({"workload": "figure1"})
            key_b = pool._spec_key({"workload": "figure1", "seed": 1})
            assert key_a != key_b
            assert key_a == pool._spec_key({"workload": "figure1", "seed": 0})
        finally:
            pool.close()


class TestRespawnSerialization:
    """Satellite: the hard-kill respawn must not race a crash respawn."""

    def test_stale_generation_respawn_is_noop(self):
        pool = WorkerPool(jobs=1)
        try:
            worker = pool._workers[0]
            with worker.lock:
                worker._respawn()  # unconditional: replaces the process
                generation = worker.generation
                pid = worker.process.pid
                worker._respawn(generation - 1)  # stale observer: no-op
                assert worker.process.pid == pid
                assert worker.generation == generation
                worker._respawn(generation)  # current observer: respawns
                assert worker.process.pid != pid
                assert worker.generation == generation + 1
        finally:
            pool.close()

    def test_hung_request_is_killed_without_harming_neighbors(self):
        # Thread A's figure1 hangs in the worker and is hard-killed at
        # 1.5x its deadline; thread B's pipeline query, queued behind the
        # same worker's lock, must land on the respawned process and get
        # its real verdict — not a crash, not a stale timeout.
        faults.install("pool.worker.request:hang:match=figure1,delay=5.0,max=0")
        pool = WorkerPool(jobs=1)
        results = {}
        try:
            def hang_victim():
                results["a"] = _verify(pool, "figure1", timeout_s=0.05)

            def healthy():
                results["b"] = _verify(pool, "pipeline", params={"senders": 2})

            thread_a = threading.Thread(target=hang_victim)
            thread_b = threading.Thread(target=healthy)
            thread_a.start()
            thread_b.start()
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)
            assert results["a"]["result"]["verdict"] == "unknown"
            assert results["a"]["result"]["unknown_reason"] == "timeout"
            assert results["b"]["result"]["verdict"] == "safe"
            worker = pool._workers[0]
            assert worker.kills == 1
            assert worker.process.is_alive()
        finally:
            pool.close()


class TestInlinePool:
    """``jobs=0`` has no process to lose: an injected crash is answered at
    once, in the shape the request's op expects."""

    def test_inline_verify_crash_answers_unknown(self):
        faults.install("pool.worker.request:crash:match=figure1,max=1")
        pool = WorkerPool(jobs=0)
        try:
            answer = _verify(pool, "figure1")
            assert answer["result"]["verdict"] == "unknown"
            assert answer["result"]["unknown_reason"] == "worker_crash"
            assert _verify(pool, "figure1")["result"]["verdict"] == "violation"
            assert pool.worker_crashes == 1
        finally:
            pool.close()

    def test_inline_enumerate_crash_is_a_worker_crash_error(self):
        faults.install("pool.worker.request:crash:match=figure1,max=1")
        service = VerificationService(jobs=0)
        try:
            request = protocol.make_request("enumerate", {"workload": "figure1"}, 7)
            crashed = service.handle_json(request)
            assert crashed["id"] == 7
            assert crashed["error"]["code"] == protocol.WORKER_CRASH
            answered = service.handle_json(request)
            assert len(answered["result"]["matchings"]) >= 1
        finally:
            service.close()
