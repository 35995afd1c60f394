"""Tests for the batch-verification lane: dispatch on the worker pool,
fingerprint dedup, the result cache (memory + disk), warm sessions across
batches, and worker-safe backend specs."""

import os

import pytest

from repro.encoding.encoder import EncoderOptions
from repro.encoding.properties import MatchProperty
from repro.program import run_program
from repro.service.pool import WorkerPool
from repro.smt.backend import BackendSpec, DpllTBackend
from repro.trace import trace_fingerprint
from repro.utils.errors import BackendUnavailableError, EncodingError, SolverError
from repro.verification import (
    ParallelVerifier,
    ResultCache,
    Verdict,
    VerificationSession,
    make_cache_key,
    replay_witness,
    verify_many,
    verify_many_parallel,
)
from repro.verification import parallel as parallel_module
from repro.verification.cache import translate_witness
from repro.verification.session import resolve_mode
from repro.workloads import (
    figure1_program,
    pipeline,
    racy_fanin,
    scatter_gather,
)


def _mixed_batch(copies=2):
    """A batch with known verdicts and in-batch duplicates (varying seeds)."""
    programs = [
        figure1_program(assert_a_is_y=True),  # violation
        pipeline(3),  # safe
        racy_fanin(2, assert_first_from_sender0=True),  # violation
        scatter_gather(2),  # safe
    ]
    traces = [
        run_program(program, seed=seed).trace
        for seed in range(copies)
        for program in programs
    ]
    expected = [
        Verdict.VIOLATION,
        Verdict.SAFE,
        Verdict.VIOLATION,
        Verdict.SAFE,
    ] * copies
    return traces, expected


class TestBackendSpec:
    def test_normalisation(self):
        assert BackendSpec.of(None).name == "dpllt"
        assert BackendSpec.of("smtlib-pipe").name == "smtlib-pipe"
        spec = BackendSpec.of("dpllt", max_iterations=7)
        assert spec.kwargs == (("max_iterations", 7),)
        assert BackendSpec.of(spec) is spec

    def test_of_merges_kwargs(self):
        base = BackendSpec.of("dpllt", max_iterations=7)
        merged = BackendSpec.of(base, max_iterations=9)
        assert merged.kwargs == (("max_iterations", 9),)

    def test_live_backend_rejected(self):
        with pytest.raises(SolverError):
            BackendSpec.of(DpllTBackend())

    def test_create_builds_fresh_instances(self):
        spec = BackendSpec.of("dpllt", max_iterations=123)
        first, second = spec.create(), spec.create()
        assert first is not second
        assert isinstance(first, DpllTBackend)

    def test_spec_is_picklable_and_hashable(self):
        import pickle

        spec = BackendSpec.of("dpllt", max_iterations=5)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert {spec: 1}[spec] == 1

    def test_create_backend_accepts_spec(self):
        from repro.smt.backend import create_backend

        backend = create_backend(BackendSpec.of("dpllt", max_iterations=0))
        assert isinstance(backend, DpllTBackend)


class TestParallelVerifyMany:
    def test_matches_serial_in_order(self):
        traces, expected = _mixed_batch()
        serial = verify_many(traces)
        parallel = verify_many_parallel(traces, jobs=2)
        assert [r.verdict for r in serial] == expected
        assert [r.verdict for r in parallel] == expected
        for s, p in zip(serial, parallel):
            if s.witness is not None:
                assert p.witness is not None

    def test_single_job_path(self):
        traces, expected = _mixed_batch(copies=1)
        results = verify_many_parallel(traces, jobs=1)
        assert [r.verdict for r in results] == expected

    def test_programs_accepted_and_runs_attached(self):
        results = verify_many_parallel(
            [figure1_program(assert_a_is_y=True), pipeline(3)], jobs=2
        )
        assert [r.verdict for r in results] == [Verdict.VIOLATION, Verdict.SAFE]
        assert all(r.program_run is not None for r in results)

    def test_in_batch_dedup_marks_duplicates(self):
        """Fingerprint-equal traces are solved once; duplicates are answered
        without solving and their witnesses translated onto their own ids."""
        traces = [run_program(racy_fanin(2, assert_first_from_sender0=True), seed=s).trace
                  for s in range(4)]
        assert len({trace_fingerprint(t) for t in traces}) == 1
        results = verify_many_parallel(traces, jobs=2)
        assert [r.verdict for r in results] == [Verdict.VIOLATION] * 4
        assert sum(1 for r in results if r.from_cache) == 3
        for result, trace in zip(results, traces):
            assert result.witness is not None
            recv_ids = {op.recv_id for op in trace.receive_operations()}
            send_ids = {event.send_id for event in trace.sends()}
            assert set(result.witness.matching) <= recv_ids
            assert set(result.witness.matching.values()) <= send_ids

    def test_rejects_foreign_items(self):
        with pytest.raises(EncodingError):
            verify_many_parallel(["nope"], jobs=1)

    def test_rejects_bad_jobs(self):
        with pytest.raises(SolverError):
            ParallelVerifier(jobs=0)

    def test_empty_batch(self):
        assert verify_many_parallel([], jobs=4) == []

    def test_verify_many_delegates_jobs_and_cache(self):
        traces, expected = _mixed_batch(copies=1)
        cache = ResultCache()
        results = verify_many(traces, jobs=2, cache=cache)
        assert [r.verdict for r in results] == expected
        assert cache.stores == len(traces)
        again = verify_many(traces, jobs=2, cache=cache)
        assert all(r.from_cache for r in again)
        assert [r.verdict for r in again] == expected

    def test_verify_many_rejects_live_backend_with_jobs(self):
        with pytest.raises(SolverError):
            verify_many([pipeline(2)], jobs=2, backend=DpllTBackend())

    def test_unknown_cache_spec_rejected(self):
        with pytest.raises(SolverError):
            ParallelVerifier(cache="redis")

    def test_jobs_one_maps_to_the_inline_pool(self):
        with ParallelVerifier(jobs=1) as inline, ParallelVerifier(jobs=2) as forked:
            assert inline.pool.jobs == 0
            assert forked.pool.jobs == 2

    def test_one_shot_front_door_closes_its_pool(self, monkeypatch):
        created = []

        class RecordingPool(WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(parallel_module, "WorkerPool", RecordingPool)
        traces, expected = _mixed_batch(copies=1)
        results = verify_many_parallel(traces, jobs=2)
        assert [r.verdict for r in results] == expected
        assert len(created) == 1
        assert created[0]._closed and created[0]._workers == []

    def test_each_distinct_question_is_dispatched_once(self):
        traces, expected = _mixed_batch(copies=3)
        with ParallelVerifier(jobs=1) as verifier:
            distinct = {verifier._key_for(trace) for trace in traces}
            results = verifier.verify_many(traces)
            pool_stats = verifier.pool.statistics()["pool"]
        assert [r.verdict for r in results] == expected
        assert pool_stats["misses"] == len(distinct) < len(traces)
        assert pool_stats["hits"] == 0
        assert sum(1 for r in results if not r.from_cache) == len(distinct)

    def test_solver_knobs_travel_through_verify_many(self):
        """reduce_db/theory_bump/idl_propagation reach the worker backends
        (serial and spec-folded lanes) without changing verdicts."""
        traces, expected = _mixed_batch(copies=1)
        tuned = verify_many(
            traces, reduce_db=False, theory_bump=0.0, idl_propagation=False
        )
        assert [r.verdict for r in tuned] == expected
        sharded = verify_many(traces, jobs=1, cache="memory", reduce_db=False)
        assert [r.verdict for r in sharded] == expected

    def test_worker_errors_surface_as_their_own_type(self, monkeypatch):
        monkeypatch.delenv("REPRO_SMT_SOLVER", raising=False)
        with pytest.raises(BackendUnavailableError):
            verify_many_parallel([pipeline(2)], jobs=2, backend="smtlib-pipe")


    def test_worker_results_keep_problem_and_replayable_witness(self):
        """An answer solved in a worker process carries what a serial one
        does: the encoded problem and a witness that replays."""
        programs = [
            figure1_program(assert_a_is_y=True),
            racy_fanin(2, assert_first_from_sender0=True),
        ]
        results = verify_many(programs, jobs=2)
        serial = verify_many(programs)
        for program, result, reference in zip(programs, results, serial):
            assert result.verdict is Verdict.VIOLATION and not result.from_cache
            assert result.problem is not None
            assert result.witness.event_order == reference.witness.event_order
            assert result.witness.clocks == reference.witness.clocks
            untimed = [
                [line for line in r.describe().splitlines() if "time" not in line]
                for r in (result, reference)
            ]
            assert untimed[0] == untimed[1]
            outcome = replay_witness(program, result.problem, result.witness)
            assert outcome.values_match and outcome.reproduced_violation

    def test_lone_question_is_solved_inline(self):
        """One distinct question starts no worker process; a batch starts
        at most one per question."""
        traces, expected = _mixed_batch(copies=2)
        with ParallelVerifier(jobs=4) as verifier:
            results = verifier.verify_many([traces[0], traces[4]])
            assert verifier._pool.jobs == 0
            assert [r.verdict for r in results] == [expected[0]] * 2
        with ParallelVerifier(jobs=8) as verifier:
            assert [r.verdict for r in verifier.verify_many(traces)] == expected
            assert verifier._pool.jobs == 4

    def test_larger_batch_replaces_a_smaller_pool(self):
        traces, expected = _mixed_batch(copies=1)
        with ParallelVerifier(jobs=3) as verifier:
            verifier.verify_many(traces[:2])
            small = verifier._pool
            assert small.jobs == 2
            assert [r.verdict for r in verifier.verify_many(traces)] == expected
            assert small._closed and verifier._pool.jobs == 3
            verifier.verify_many(traces[:1])  # a smaller batch keeps the pool
            assert verifier._pool.jobs == 3

    def test_small_budget_answers_alike_inline_and_in_workers(self):
        traces, _ = _mixed_batch(copies=1)
        for budget in (0.0, 30.0):
            inline = verify_many_parallel(traces, jobs=1, timeout_s=budget)
            forked = verify_many_parallel(traces, jobs=2, timeout_s=budget)
            assert [(r.verdict, r.unknown_reason) for r in inline] == [
                (r.verdict, r.unknown_reason) for r in forked
            ]


class TestResultCache:
    def test_memory_roundtrip_translates_witness(self):
        program = racy_fanin(2, assert_first_from_sender0=True)
        first = run_program(program, seed=0).trace
        second = run_program(program, seed=3).trace
        cache = ResultCache()
        results = verify_many_parallel([first], cache=cache, jobs=1)
        assert cache.stores == 1
        key = make_cache_key(second)
        hit = cache.lookup(key, second)
        assert hit is not None and hit.from_cache
        assert hit.verdict is Verdict.VIOLATION
        assert hit.problem is None
        recv_ids = {op.recv_id for op in second.receive_operations()}
        assert set(hit.witness.matching) <= recv_ids
        assert "cache" in hit.describe()

    def test_unknown_never_cached(self):
        trace = run_program(figure1_program(assert_a_is_y=True), seed=0).trace
        cache = ResultCache()
        results = verify_many_parallel(
            [trace], cache=cache, jobs=1, max_solver_iterations=0
        )
        assert results[0].verdict is Verdict.UNKNOWN
        assert cache.stores == 0
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        traces = [
            run_program(program, seed=0).trace
            for program in (pipeline(2), pipeline(3), pipeline(4))
        ]
        verify_many_parallel(traces, cache=cache, jobs=1)
        assert len(cache) == 2  # oldest entry evicted

    def test_disk_store_survives_processes(self, tmp_path):
        traces, expected = _mixed_batch(copies=1)
        directory = str(tmp_path / "cache")
        verify_many_parallel(traces, jobs=1, cache_dir=directory)
        assert any(name.endswith(".json") for name in os.listdir(directory))
        fresh = ResultCache(directory=directory)  # empty memory layer
        results = verify_many_parallel(traces, jobs=1, cache=fresh)
        assert [r.verdict for r in results] == expected
        assert all(r.from_cache for r in results)
        assert fresh.misses == 0

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        directory = str(tmp_path)
        trace = run_program(pipeline(2), seed=0).trace
        cache = ResultCache(directory=directory)
        verify_many_parallel([trace], jobs=1, cache=cache)
        (path,) = [
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.endswith(".json") and not name.startswith("_")
        ]
        with open(path, "w") as handle:
            handle.write("{torn")
        fresh = ResultCache(directory=directory)
        assert fresh.lookup(make_cache_key(trace), trace) is None
        assert fresh.misses == 1

    def test_explicit_properties_never_shared_across_renumbered_traces(self):
        """Regression: fingerprint-equal traces can bind the same recv_id to
        different logical receives (ids follow the interleaving).  An
        explicit property naming a trace-local id must therefore never hit
        an entry written by a differently-numbered trace — the batch verdict
        has to match the per-trace sessions exactly."""
        from repro.encoding.properties import ReceiveValueProperty
        from repro.smt import Eq, IntVal
        from repro.verification import VerificationSession

        def recv_bindings(trace):
            return {
                op.recv_id: trace[op.issue_event_id].thread
                for op in trace.receive_operations()
            }

        program = scatter_gather(2)
        first = run_program(program, seed=0).trace
        second = next(
            trace
            for seed in range(1, 20)
            for trace in [run_program(program, seed=seed).trace]
            if recv_bindings(trace) != recv_bindings(first)
        )
        assert trace_fingerprint(first) == trace_fingerprint(second)
        properties = [ReceiveValueProperty(1, lambda v: Eq(v, IntVal(1)))]
        expected = [
            VerificationSession(t, properties=properties).verdict().verdict
            for t in (first, second)
        ]
        batch = verify_many_parallel(
            [first, second], jobs=1, properties=properties, cache=ResultCache()
        )
        assert [r.verdict for r in batch] == expected
        assert make_cache_key(first, properties=properties) != make_cache_key(
            second, properties=properties
        )

    def test_key_components_invalidate(self):
        trace = run_program(pipeline(2), seed=0).trace
        base = make_cache_key(trace)
        assert make_cache_key(trace, backend="smtlib-pipe") != base
        assert (
            make_cache_key(trace, options=EncoderOptions(enforce_pair_fifo=True))
            != base
        )
        assert base.digest() != make_cache_key(trace, backend="smtlib-pipe").digest()

    def test_statistics_shape(self):
        cache = ResultCache()
        trace = run_program(pipeline(2), seed=0).trace
        cache.lookup(make_cache_key(trace), trace)
        stats = cache.statistics()
        assert stats["misses"] == 1 and stats["hits"] == 0

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


class TestWarmBatchPath:
    """A verifier's pool outlives its batches; warm sessions must only ever
    answer the exact question they were built for."""

    def test_reused_verifier_hits_warm_sessions(self):
        traces, expected = _mixed_batch(copies=1)
        with ParallelVerifier(jobs=2) as verifier:
            first = verifier.verify_many(traces)
            assert verifier.pool.statistics()["pool"]["hits"] == 0
            second = verifier.verify_many(traces)
            # An idle worker may take a question off another's queue, so
            # not every repeat is guaranteed to find its warm session.
            assert 0 < verifier.pool.statistics()["pool"]["hits"] <= len(traces)
        assert [r.verdict for r in first] == expected
        assert [r.verdict for r in second] == expected
        assert verifier._pool is None  # closed on leaving the block

    def test_equal_fingerprint_different_properties_never_share(self):
        """Two questions on one trace that differ only in their explicit
        properties, sent to the same worker, each get their own verdict."""
        trace = run_program(racy_fanin(2), seed=0).trace
        recv_id = trace.receive_operations()[0].recv_id
        send_ids = sorted(event.send_id for event in trace.sends())
        questions = [
            [MatchProperty(recv_id, send_ids)],  # always holds
            [MatchProperty(recv_id, send_ids[:1])],  # the race breaks it
        ]
        expected = [
            VerificationSession(trace, properties=props).verdict().verdict
            for props in questions
        ]
        assert expected == [Verdict.SAFE, Verdict.VIOLATION]
        pool = WorkerPool(jobs=1)
        try:
            answers = [
                pool.submit(_question(trace, properties=props))
                for props in questions * 2
            ]
            assert [a["result"].verdict for a in answers] == expected * 2
            assert [a["pool_hit"] for a in answers] == [False, False, True, True]
        finally:
            pool.close()

    def test_renumbered_trace_gets_witness_in_its_own_ids(self):
        program = racy_fanin(2, assert_first_from_sender0=True)
        first = run_program(program, seed=0).trace
        second = next(
            trace
            for seed in range(1, 20)
            for trace in [run_program(program, seed=seed).trace]
            if _send_bindings(trace) != _send_bindings(first)
        )
        assert trace_fingerprint(first) == trace_fingerprint(second)
        with ParallelVerifier(jobs=1) as verifier:
            (cold,) = verifier.verify_many([first])
            (warm,) = verifier.verify_many([second])
            assert verifier.pool.statistics()["pool"]["hits"] == 1
        assert warm.verdict is Verdict.VIOLATION and not warm.from_cache
        recv_ids = {op.recv_id for op in second.receive_operations()}
        send_ids = {event.send_id for event in second.sends()}
        assert set(warm.witness.matching) <= recv_ids
        assert set(warm.witness.matching.values()) <= send_ids
        # The same logical pairing, renamed onto the second recording.
        assert warm.witness.matching == translate_witness(
            cold.witness, first, second
        ).matching

    def test_mode_keeps_warm_sessions_apart(self):
        """The same trace asked under two modes, on one worker, never has
        one mode's warm session answer the other."""
        trace = run_program(racy_fanin(2, assert_first_from_sender0=True), seed=0).trace
        _, orphan_properties = resolve_mode("orphan", None, None)
        questions = [
            _question(trace),
            _question(trace, properties=orphan_properties, mode="orphan"),
        ]
        expected = [Verdict.VIOLATION, Verdict.SAFE]
        pool = WorkerPool(jobs=1)
        try:
            answers = [pool.submit(question) for question in questions * 2]
            assert [a["result"].verdict for a in answers] == expected * 2
            assert [a["pool_hit"] for a in answers] == [False, False, True, True]
        finally:
            pool.close()

    def test_idle_workers_take_over_a_backlog(self, monkeypatch):
        """Affinity only queues a request: when every question routes to
        one worker, the idle workers take questions off its backlog."""
        traces, expected = _mixed_batch(copies=2)
        questions = [_question(trace) for trace in traces]
        placed = []
        dispatch = WorkerPool._dispatch

        def recording(self, worker, request, timeout_s):
            placed.append(self._workers.index(worker))
            return dispatch(self, worker, request, timeout_s)

        monkeypatch.setattr(WorkerPool, "_dispatch", recording)
        pool = WorkerPool(jobs=2)
        try:
            monkeypatch.setattr(pool, "_route", lambda request: pool._workers[0])
            answers = pool.map(questions)
        finally:
            pool.close()
        assert [a["result"].verdict for a in answers] == expected
        assert sorted(set(placed)) == [0, 1]

    def test_fully_cached_batch_never_starts_the_pool(self):
        traces, expected = _mixed_batch(copies=1)
        cache = ResultCache()
        verify_many_parallel(traces, jobs=2, cache=cache)
        with ParallelVerifier(jobs=2, cache=cache) as verifier:
            results = verifier.verify_many(traces)
            assert verifier._pool is None
        assert [r.verdict for r in results] == expected
        assert all(r.from_cache for r in results)

    def test_closed_verifier_starts_a_fresh_pool(self):
        traces, expected = _mixed_batch(copies=1)
        verifier = ParallelVerifier(jobs=1)
        try:
            verifier.verify_many(traces)
            first_pool = verifier.pool
            verifier.close()
            assert first_pool._closed
            again = verifier.verify_many(traces)
            assert verifier.pool is not first_pool
            # A fresh pool has no warm sessions: every question is cold again.
            assert verifier.pool.statistics()["pool"]["hits"] == 0
        finally:
            verifier.close()
        assert [r.verdict for r in again] == expected


def _send_bindings(trace):
    return {
        event.send_id: (event.thread, event.thread_index) for event in trace.sends()
    }


def _question(trace, properties=None, mode="safety"):
    """A batch request as ParallelVerifier builds it."""
    spec = BackendSpec.of(None, max_iterations=200_000)
    return {
        "op": "verify",
        "key": make_cache_key(
            trace, properties=properties, backend=spec.name, mode=mode
        ),
        "trace": trace,
        "options": None,
        "properties": properties,
        "mode": mode,
        "backend": spec,
    }
