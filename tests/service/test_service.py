"""Tests for the verification service: dispatch, the warm session pool,
the shared result cache, concurrent TCP clients and daemon shutdown."""

import asyncio
import io
import json
import socket
import threading
import time

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, parse_address
from repro.service.pool import (
    CRASH_LEDGER_SIZE,
    DEGRADATION_LOG_SIZE,
    RECORDING_MEMO_SIZE,
    SessionPool,
    WorkerPool,
    _Executor,
    _RecordingMemo,
    build_program,
)
from repro.service.server import VerificationService, run_stdio
from repro.trace.fingerprint import trace_fingerprint
from repro.utils.errors import ServiceError
from repro.verification.cache import ResultCache
from repro.verification.cli import WORKLOADS
from repro.verification.parallel import ParallelVerifier
from repro.verification.result import Verdict
from repro.verification.session import VerificationSession


def _request(method, params=None, request_id=1):
    return protocol.make_request(method, params, request_id)


@pytest.fixture()
def service():
    svc = VerificationService(jobs=0)
    yield svc
    svc.close()


class TestDispatch:
    """handle_json drives the full pipeline without any sockets."""

    def test_verify_violation_with_witness(self, service):
        response = service.handle_json(
            _request("verify", {"workload": "figure1"})
        )
        result = response["result"]["result"]
        assert result["verdict"] == "violation"
        assert result["witness"]["matching"]
        assert response["result"]["pool_hit"] is False

    def test_second_verify_hits_warm_pool(self, service):
        service.handle_json(_request("verify", {"workload": "figure1"}))
        response = service.handle_json(
            _request("verify", {"workload": "figure1"}, request_id=2)
        )
        assert response["result"]["pool_hit"] is True

    def test_verify_batch_mixed_verdicts(self, service):
        response = service.handle_json(
            _request(
                "verify_batch",
                {
                    "queries": [
                        {"workload": "figure1"},
                        {"workload": "pipeline", "params": {"senders": 3}},
                    ]
                },
            )
        )
        verdicts = [
            item["result"]["verdict"] for item in response["result"]["results"]
        ]
        assert verdicts == ["violation", "safe"]

    def test_batch_shared_params_apply_to_every_query(self, service):
        response = service.handle_json(
            _request(
                "verify_batch",
                {
                    "workload": "figure1",
                    "queries": [{"seed": 0}, {"seed": 1}],
                },
            )
        )
        assert len(response["result"]["results"]) == 2

    def test_enumerate_matchings(self, service):
        response = service.handle_json(
            _request("enumerate", {"workload": "figure1"})
        )
        matchings = response["result"]["matchings"]
        assert len(matchings) >= 2  # figure1's race admits several schedules

    def test_stats_counters(self, service):
        service.handle_json(_request("verify", {"workload": "figure1"}))
        service.handle_json(_request("verify", {"workload": "figure1"}, request_id=2))
        response = service.handle_json(_request("stats", request_id=3))
        stats = response["result"]
        assert stats["pool"]["misses"] == 1
        assert stats["pool"]["hits"] == 1
        assert stats["requests"] == 3
        assert stats["jobs"] == 0

    def test_shutdown_sets_flag(self, service):
        response = service.handle_json(_request("shutdown"))
        assert response["result"] == {"stopping": True}
        assert service.shutdown_requested

    def test_timeout_param_reports_unknown(self, service):
        response = service.handle_json(
            _request("verify", {"workload": "figure1", "timeout_s": 0.0})
        )
        result = response["result"]["result"]
        assert result["verdict"] == "unknown"
        assert result["unknown_reason"] == "timeout"

    def test_default_timeout_applies_when_query_has_none(self):
        svc = VerificationService(jobs=0, default_timeout_s=0.0)
        try:
            response = svc.handle_json(_request("verify", {"workload": "figure1"}))
            assert response["result"]["result"]["unknown_reason"] == "timeout"
        finally:
            svc.close()


class TestDispatchErrors:
    def test_unknown_method(self, service):
        response = service.handle_json(_request("explode"))
        assert response["error"]["code"] == protocol.METHOD_NOT_FOUND

    def test_missing_jsonrpc_tag(self, service):
        response = service.handle_json({"id": 1, "method": "verify"})
        assert response["error"]["code"] == protocol.INVALID_REQUEST

    def test_unknown_workload(self, service):
        response = service.handle_json(
            _request("verify", {"workload": "not-a-workload"})
        )
        assert response["error"]["code"] == protocol.INVALID_PARAMS

    def test_unknown_workload_param(self, service):
        response = service.handle_json(
            _request("verify", {"workload": "figure1", "params": {"bogus": 1}})
        )
        assert response["error"]["code"] == protocol.INVALID_PARAMS

    @pytest.mark.parametrize(
        "extra",
        [
            {"match_pairs": "Precise"},
            {"match_pairs": "bogus"},
            {"theory_mode": "offline"},
            {"theory_mode": "online"},
            {"max_iterations": 0},
            {"match_pair": "precise"},
            {"seeds": 3},
        ],
    )
    def test_unsupported_spec_value_is_an_error_and_pools_nothing(
        self, service, extra
    ):
        """A spec the daemon cannot honour exactly is refused before any
        session is built, instead of being answered under the defaults."""
        params = dict({"workload": "racy_fanin", "params": {"senders": 3}}, **extra)
        response = service.handle_json(_request("verify", params))
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        pool = service.pool.statistics()["pool"]
        assert pool["entries"] == [] and pool["misses"] == 0

    def test_misspelt_key_is_refused_not_served_as_endpoint(self, service):
        """A typo'd ``match_pair`` used to be ignored, so the request was
        answered under the endpoint strategy and parked a warm session."""
        response = service.handle_json(
            _request("verify", {"workload": "figure1", "match_pair": "precise"})
        )
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert "'match_pair'" in response["error"]["message"]
        assert len(service.pool._inline.pool) == 0

    @pytest.mark.parametrize("backend", ["smtlib", "no-such-backend"])
    def test_unknown_backend_is_an_error_not_a_degradation(
        self, service, backend, monkeypatch
    ):
        """The retired one-shot ``smtlib`` name resolves like any unknown
        name -- even with an external solver configured, it is never
        answered by ``dpllt`` through the backend ladder."""
        monkeypatch.setenv("REPRO_SMT_SOLVER", "true")
        response = service.handle_json(
            _request("verify", {"workload": "figure1", "backend": backend})
        )
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert "UnknownBackendError" in response["error"]["message"]
        stats = service.pool.statistics()
        assert stats["pool"]["entries"] == [] and stats["pool"]["misses"] == 0
        assert stats["degradations"] == [] and stats["degradations_total"] == 0

    def test_budgeted_spec_cannot_poison_the_warm_pool(self, service):
        """A per-request iteration budget is not part of the pool key, so a
        budget-0 session left warm would answer UNKNOWN to every later
        request of the same question.  The budget is refused before any
        session exists; the next request builds its own and is decided."""
        spec = {"workload": "racy_fanin", "params": {"senders": 3}}
        refused = service.handle_json(
            _request("verify", dict(spec, max_iterations=0))
        )
        assert refused["error"]["code"] == protocol.INVALID_PARAMS
        response = service.handle_json(_request("verify", spec, request_id=2))
        assert response["result"]["pool_hit"] is False
        assert response["result"]["result"]["verdict"] != "unknown"

    @pytest.mark.parametrize("match_pairs", ["endpoint", "precise"])
    def test_known_match_pairs_values_are_served(self, service, match_pairs):
        response = service.handle_json(
            _request("verify", {"workload": "figure1", "match_pairs": match_pairs})
        )
        assert response["result"]["result"]["verdict"] == "violation"

    def test_empty_batch_rejected(self, service):
        response = service.handle_json(_request("verify_batch", {"queries": []}))
        assert response["error"]["code"] == protocol.INVALID_PARAMS

    def test_error_does_not_kill_later_requests(self, service):
        service.handle_json(_request("verify", {"workload": "nope"}))
        response = service.handle_json(
            _request("verify", {"workload": "figure1"}, request_id=2)
        )
        assert response["result"]["result"]["verdict"] == "violation"


class TestSessionPool:
    def test_lru_eviction_and_stats(self):
        from repro.service.pool import PoolKey

        pool = SessionPool(capacity=2)
        keys = [
            PoolKey(
                fingerprint=f"f{i}",
                options="endpoint;fifo=False",
                backend="dpllt",
            )
            for i in range(3)
        ]
        for key in keys:
            assert pool.get(key) is None
            pool.put(key, object())
        assert pool.get(keys[0]) is None  # evicted by capacity 2
        assert pool.get(keys[2]) is not None
        stats = pool.statistics()
        assert stats["evictions"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 4

    def test_invalidate_by_fingerprint(self):
        from repro.service.pool import PoolKey

        pool = SessionPool(capacity=8)
        key_a = PoolKey(fingerprint="aa", options="o", backend="dpllt")
        key_b = PoolKey(fingerprint="bb", options="o", backend="dpllt")
        pool.put(key_a, object())
        pool.put(key_b, object())
        assert pool.invalidate("aa") == 1
        assert pool.get(key_a) is None
        assert pool.get(key_b) is not None
        assert pool.invalidate() == 1  # drop the rest


def _memo_recording(workload, seed):
    recording = _RecordingMemo().record(workload, None, seed)
    return recording.trace, recording.run


def _session_recording(workload, seed):
    session = VerificationSession.from_program(
        build_program(workload, None), seed=seed, on_deadlock="static"
    )
    return session.trace, session.program_run


def _batch_recording(workload, seed):
    verifier = ParallelVerifier(jobs=1, mode="deadlock", seed=seed)
    return verifier._normalise([build_program(workload, None)])[0]


#: The recording lanes that must agree with a worker's memo.
_RECORDERS = {
    "memo": _memo_recording,
    "from_program": _session_recording,
    "parallel": _batch_recording,
}


class TestRecordingMemo:
    """A workload spec's recording is memoised per worker: repeats skip
    build, run and fingerprint, and answer exactly as a fresh recording."""

    @pytest.mark.parametrize("recorder", sorted(_RECORDERS))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_workload_records_one_fingerprint_per_seed(
        self, workload, recorder
    ):
        """The memo, ``from_program(on_deadlock="static")`` and a
        deadlock-mode ``ParallelVerifier`` share one recording helper."""
        shared = _RecordingMemo()
        for seed in range(4):
            first = shared.record(workload, None, seed)
            trace, run = _RECORDERS[recorder](workload, seed)
            assert first.fingerprint == trace_fingerprint(trace)
            assert (first.run is None) == (run is None)
            assert shared.record(workload, None, seed) is first
            if workload == "circular_wait":  # the static-trace fallback
                assert first.run is None and run is None
        assert shared.statistics() == {"entries": 4, "hits": 4, "misses": 4}

    @pytest.mark.parametrize(
        "spec",
        [
            {"workload": "figure1"},
            {"workload": "racy_fanin", "params": {"senders": 3}, "seed": 2},
            {"workload": "pipeline", "params": {"senders": 3}, "mode": "orphan"},
            {"workload": "circular_wait", "mode": "deadlock"},
        ],
    )
    def test_memo_hit_answers_like_a_fresh_executor(self, spec):
        request = dict(spec, op="verify")
        fresh = _Executor(SessionPool()).execute(dict(request))["result"]
        executor = _Executor(SessionPool())
        executor.execute(dict(request))
        warm = executor.execute(dict(request))  # memo hit, pool hit
        executor.pool.invalidate()
        rebuilt = executor.execute(dict(request))  # memo hit, pool miss
        assert warm["pool_hit"] and not rebuilt["pool_hit"]
        assert executor.recordings.statistics() == {
            "entries": 1,
            "hits": 2,
            "misses": 1,
        }
        for response in (warm, rebuilt):
            answer = response["result"]
            assert answer["verdict"] == fresh["verdict"]
            assert answer["witness"] == fresh["witness"]
            assert answer["unknown_reason"] == fresh["unknown_reason"]

    def test_invalidate_drops_matching_recordings(self):
        executor = _Executor(SessionPool())
        fingerprints = [
            executor.execute({"op": "verify", "workload": name})["fingerprint"]
            for name in ("figure1", "pipeline")
        ]
        dropped = executor.execute({"op": "invalidate", "fingerprint": fingerprints[0]})
        assert dropped == {"ok": True, "dropped": 1}
        assert len(executor.recordings) == 1
        assert executor.execute({"op": "verify", "workload": "pipeline"})["pool_hit"]
        assert executor.recordings.hits == 1
        executor.execute({"op": "invalidate"})
        assert len(executor.recordings) == 0
        executor.execute({"op": "verify", "workload": "pipeline"})
        assert executor.recordings.misses == 3  # recorded afresh

    def test_memo_never_exceeds_its_bound(self):
        memo = _RecordingMemo(capacity=3)
        for seed in range(10):
            memo.record("figure1", None, seed)
            assert len(memo) <= 3
        assert memo.record("figure1", None, 9) is memo.record("figure1", None, 9)
        assert memo.statistics() == {"entries": 3, "hits": 2, "misses": 10}
        default = _RecordingMemo()
        for seed in range(RECORDING_MEMO_SIZE + 5):
            default.record("figure1", None, seed)
        assert len(default) == RECORDING_MEMO_SIZE

    @pytest.mark.parametrize(
        "spec",
        [
            {"workload": "not-a-workload"},
            {"workload": "figure1", "params": {"bogus": 1}},
            {"workload": "figure1", "backend": "no-such-backend"},
            {"workload": "figure1", "max_iterations": 0},
        ],
    )
    def test_rejected_specs_are_never_memoised(self, service, spec):
        for request_id in range(3):
            response = service.handle_json(_request("verify", spec, request_id))
            assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert service.pool.statistics()["recordings"] == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
        }

    def test_degradation_ladder_reuses_the_recording(self, monkeypatch):
        from repro.service import pool as pool_module
        from repro.smt.backend import _REGISTRY, DpllTBackend, register_backend
        from repro.utils.errors import BackendUnavailableError

        class LostSolver(DpllTBackend):
            name = "test-lost-solver"

            def check(self, *assumptions):
                raise BackendUnavailableError("solver binary vanished")

        register_backend("test-lost-solver", LostSolver, replace=True)
        monkeypatch.setattr(
            pool_module, "_DEGRADABLE_BACKENDS", ("test-lost-solver",)
        )
        try:
            executor = _Executor(SessionPool())
            response = executor.execute(
                {"op": "verify", "workload": "figure1", "backend": "test-lost-solver"}
            )
        finally:
            _REGISTRY.pop("test-lost-solver", None)
        assert response["result"]["verdict"] == "violation"
        assert (
            response["result"]["solver_statistics"]["degraded_from"]
            == "test-lost-solver"
        )
        # The fallback re-solves the normalised question: one recording,
        # and no second trip through the memo.
        assert executor.recordings.statistics() == {
            "entries": 1,
            "hits": 0,
            "misses": 1,
        }

    def test_ladder_fallback_does_not_stamp_the_warm_dpllt_verdict(
        self, monkeypatch
    ):
        """The fallback's ``degraded_from`` stamp goes on a copy: the dpllt
        session it leaves warm answers a later dpllt request undegraded."""
        from repro.service import pool as pool_module
        from repro.smt.backend import _REGISTRY, DpllTBackend, register_backend
        from repro.utils.errors import SolverError

        class CrashingSolver(DpllTBackend):
            name = "test-crashing-solver"

            def check(self, *assumptions):
                raise SolverError("solver process failed twice")

        register_backend("test-crashing-solver", CrashingSolver, replace=True)
        monkeypatch.setattr(
            pool_module, "_DEGRADABLE_BACKENDS", ("test-crashing-solver",)
        )
        executor = _Executor(SessionPool())
        request = {"op": "verify", "workload": "figure1"}
        try:
            degraded = executor.execute(dict(request, backend="test-crashing-solver"))
        finally:
            _REGISTRY.pop("test-crashing-solver", None)
        assert "degraded_from" in degraded["result"]["solver_statistics"]
        plain = executor.execute(request)
        assert plain["pool_hit"]
        assert plain["result"]["verdict"] == degraded["result"]["verdict"]
        assert "degraded_from" not in plain["result"]["solver_statistics"]

    def test_stats_reply_stays_one_frame_with_the_memo_full(self, service):
        memo = service.pool._inline.recordings
        for seed in range(RECORDING_MEMO_SIZE):
            memo.record("racy_fanin", {"senders": 2}, seed)
        response = service.handle_json(_request("stats"))
        assert len(protocol.encode_frame(response)) < protocol.MAX_FRAME_BYTES
        assert response["result"]["recordings"] == {
            "entries": RECORDING_MEMO_SIZE,
            "hits": 0,
            "misses": RECORDING_MEMO_SIZE,
        }

    def test_param_override_does_not_leak_into_default_build(self):
        default_threads = len(build_program("racy_fanin", None).threads)
        overridden = build_program("racy_fanin", {"senders": 5})
        assert len(overridden.threads) != default_threads
        assert len(build_program("racy_fanin", None).threads) == default_threads


class TestSharedCache:
    def test_two_services_share_one_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = VerificationService(jobs=0, cache_dir=cache_dir)
        try:
            response = first.handle_json(_request("verify", {"workload": "figure1"}))
            assert response["result"]["result"]["from_cache"] is False
        finally:
            first.close()
        second = VerificationService(jobs=0, cache_dir=cache_dir)
        try:
            response = second.handle_json(_request("verify", {"workload": "figure1"}))
            assert response["result"]["result"]["from_cache"] is True
        finally:
            second.close()


    def test_cache_answers_before_the_session_pool(self, monkeypatch):
        """A cached answer whose warm session was dropped is served from
        the cache alone: nothing is encoded and the pool is untouched (no
        miss, no rebuilt session, no eviction of another warm session)."""
        from repro.encoding.encoder import TraceEncoder

        executor = _Executor(SessionPool(capacity=1), cache=ResultCache())
        request = {"op": "verify", "workload": "figure1"}
        solved = executor.execute(dict(request))
        assert solved["result"]["from_cache"] is False
        executor.pool.invalidate()
        counters = {
            name: executor.pool.statistics()[name]
            for name in ("hits", "misses", "evictions")
        }
        encodes = []
        encode = TraceEncoder.encode
        monkeypatch.setattr(
            TraceEncoder,
            "encode",
            lambda self, *args, **kwargs: encodes.append(1)
            or encode(self, *args, **kwargs),
        )
        cached = executor.execute(dict(request))
        assert cached["result"]["from_cache"] is True
        assert cached["pool_hit"] is False
        assert cached["result"]["verdict"] == solved["result"]["verdict"]
        assert cached["result"]["witness"] == solved["result"]["witness"]
        assert encodes == []
        assert len(executor.pool) == 0
        assert {
            name: executor.pool.statistics()[name] for name in counters
        } == counters


class _DaemonHarness:
    """A live TCP daemon on an OS-assigned port, run on a background thread."""

    def __init__(self, jobs=0, **kwargs):
        self.service = VerificationService(jobs=jobs, **kwargs)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        self.port = probe.getsockname()[1]
        probe.close()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", self.port), 0.2).close()
                return
            except OSError:
                time.sleep(0.05)
        raise RuntimeError("daemon did not come up")

    def _run(self):
        asyncio.run(self.service.serve_forever("127.0.0.1", self.port))

    def client(self):
        return ServiceClient(f"127.0.0.1:{self.port}")

    def stop(self):
        if self.thread.is_alive():
            try:
                with self.client() as client:
                    client.shutdown()
            except ServiceError:
                pass
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "daemon failed to stop"


@pytest.fixture()
def daemon():
    harness = _DaemonHarness(jobs=0)
    yield harness
    harness.stop()


class TestTcpDaemon:
    def test_verify_round_trip(self, daemon):
        with daemon.client() as client:
            result = client.verify("figure1")
        assert result.verdict is Verdict.VIOLATION
        assert result.witness is not None

    def test_batch_and_enumerate(self, daemon):
        with daemon.client() as client:
            results = client.verify_batch(
                [{"workload": "figure1"}, {"workload": "pipeline"}]
            )
            matchings = client.enumerate("figure1")
        assert [r.verdict for r in results] == [Verdict.VIOLATION, Verdict.SAFE]
        assert len(matchings) >= 2

    def test_concurrent_clients_share_one_warm_session(self, daemon):
        """Same fingerprint from many clients → one encode, pool hits for
        the rest (the requests serialise on the inline executor lock)."""
        verdicts = {}

        def worker(index):
            with daemon.client() as client:
                verdicts[index] = client.verify("figure1").verdict

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(v is Verdict.VIOLATION for v in verdicts.values())
        with daemon.client() as client:
            stats = client.stats()
        assert stats["pool"]["misses"] == 1  # one encode for four clients
        assert stats["pool"]["hits"] == 3

    def test_malformed_frame_gets_parse_error(self, daemon):
        sock = socket.create_connection(("127.0.0.1", daemon.port), 5.0)
        try:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        finally:
            sock.close()
        assert response["error"]["code"] == protocol.PARSE_ERROR

    def test_unknown_method_error_surfaces_in_client(self, daemon):
        with daemon.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client._call("frobnicate")
        assert str(protocol.METHOD_NOT_FOUND) in str(excinfo.value)

    def test_shutdown_stops_daemon(self, daemon):
        with daemon.client() as client:
            assert client.shutdown() == {"stopping": True}
        daemon.thread.join(timeout=10.0)
        assert not daemon.thread.is_alive()
        with pytest.raises(ServiceError):
            ServiceClient(f"127.0.0.1:{daemon.port}")


class TestStdio:
    def test_stdio_round_trip(self):
        lines = [
            json.dumps(_request("verify", {"workload": "figure1"}, request_id=1)),
            json.dumps(_request("stats", request_id=2)),
            json.dumps(_request("shutdown", request_id=3)),
        ]
        stdout = io.StringIO()
        rc = run_stdio(jobs=0, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert rc == 0
        assert responses[0]["result"]["result"]["verdict"] == "violation"
        assert responses[1]["result"]["requests"] == 2
        assert responses[2]["result"] == {"stopping": True}

    def test_stdio_stops_reading_after_shutdown(self):
        lines = [
            json.dumps(_request("shutdown", request_id=1)),
            json.dumps(_request("verify", {"workload": "figure1"}, request_id=2)),
        ]
        stdout = io.StringIO()
        run_stdio(jobs=0, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=stdout)
        responses = stdout.getvalue().splitlines()
        assert len(responses) == 1  # the post-shutdown verify is never served


class TestParseAddress:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("127.0.0.1:9177", ("127.0.0.1", 9177)),
            (":8000", ("127.0.0.1", 8000)),
            ("8000", ("127.0.0.1", 8000)),
            ("verifier.local", ("verifier.local", 9177)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_address(text) == expected

    @pytest.mark.parametrize("text", ["", "host:notaport"])
    def test_rejected_forms(self, text):
        with pytest.raises(ServiceError):
            parse_address(text)


class TestWorkerPoolRouting:
    def test_inline_pool_counts_timeouts(self):
        pool = WorkerPool(jobs=0)
        try:
            response = pool.submit(
                {"op": "verify", "workload": "figure1"}, timeout_s=0.0
            )
            assert response["result"]["unknown_reason"] == "timeout"
            assert pool.timeouts == 1
        finally:
            pool.close()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(jobs=0)
        pool.close()
        with pytest.raises(ServiceError):
            pool.submit({"op": "verify", "workload": "figure1"})


class TestBoundedReplies:
    """A long-lived daemon keeps its replies and its ledgers bounded."""

    def test_oversized_reply_is_an_error_and_the_connection_survives(
        self, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        harness = _DaemonHarness(jobs=0)
        try:
            with harness.client() as client:
                with pytest.raises(ServiceError, match="reply too large"):
                    client.verify_batch([{"workload": "figure1"}] * 16)
                assert client.verify("figure1").verdict is Verdict.VIOLATION
                assert client.retried_calls == 0
                assert client.reconnects == 0  # one connection throughout
        finally:
            harness.stop()

    def test_oversized_reply_over_stdio_keeps_serving(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        lines = [
            json.dumps(
                _request(
                    "verify_batch", {"queries": [{"workload": "figure1"}] * 16}, 1
                )
            ),
            json.dumps(_request("verify", {"workload": "figure1"}, 2)),
        ]
        stdout = io.StringIO()
        assert run_stdio(
            jobs=0, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=stdout
        ) == 0
        first, second = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert first["id"] == 1
        assert first["error"]["code"] == protocol.INVALID_PARAMS
        assert second["id"] == 2
        assert second["result"]["result"]["verdict"] == "violation"

    def test_batch_query_count_is_capped(self, service):
        queries = [{"workload": "figure1"}] * (protocol.MAX_BATCH_QUERIES + 1)
        response = service.handle_json(_request("verify_batch", {"queries": queries}))
        assert response["error"]["code"] == protocol.INVALID_PARAMS
        assert "at most" in response["error"]["message"]

    def test_degradation_flood_keeps_stats_reply_in_one_frame(self, service):
        event = {
            "layer": "backend",
            "from": "smtlib-pipe",
            "to": "dpllt",
            "reason": "x" * 200,
            "workload": "figure1",
        }
        for _ in range(10_000):
            service.pool._absorb({"degradations": [dict(event)]})
        response = service.handle_json(_request("stats"))
        assert len(protocol.encode_frame(response)) < protocol.MAX_FRAME_BYTES
        stats = response["result"]
        assert stats["degradations_total"] == 10_000
        assert len(stats["degradations"]) == DEGRADATION_LOG_SIZE

    def test_degradation_log_keeps_the_newest_events(self, service):
        for index in range(DEGRADATION_LOG_SIZE + 5):
            service.pool._absorb(
                {"degradations": [{"layer": "backend", "reason": f"event-{index}"}]}
            )
        stats = service.handle_json(_request("stats"))["result"]
        reasons = [event["reason"] for event in stats["degradations"]]
        assert reasons == [
            f"event-{index}" for index in range(5, DEGRADATION_LOG_SIZE + 5)
        ]
        assert stats["degradations_total"] == DEGRADATION_LOG_SIZE + 5

    def test_crash_ledger_is_bounded(self):
        pool = WorkerPool(jobs=0)
        try:
            for index in range(CRASH_LEDGER_SIZE + 10):
                pool._count_crash(f"spec-{index}")
            assert len(pool._crash_counts) == CRASH_LEDGER_SIZE
            assert "spec-0" not in pool._crash_counts  # oldest dropped first
            assert pool._count_crash(f"spec-{CRASH_LEDGER_SIZE + 9}") == 2
        finally:
            pool.close()
