"""Warm verification state for the service: session pool + worker pool.

Two layers:

* :class:`SessionPool` — an LRU of live
  :class:`~repro.verification.session.VerificationSession` objects keyed by
  trace fingerprint × encoder options × backend, plus properties × mode
  for batch questions (:class:`PoolKey`).  A pool hit skips encoding
  entirely and lands on an incremental backend that has already learned
  the instance; per-entry hit counts and ages are exposed for the
  service's ``stats`` method, and entries can be invalidated explicitly
  by fingerprint.
* :class:`WorkerPool` — long-lived ``multiprocessing`` workers, each owning
  its *own* ``SessionPool``.  Requests are routed by pool-key affinity
  (same key → same worker → warm hit); a request that blows through its
  deadline gets its worker killed and respawned, which is the only reliable
  cancellation for CPU-bound solving — the in-solver soft deadline
  (:meth:`VerificationSession.verdict` ``timeout_s``) usually answers
  first, the kill is the backstop for backends that cannot be interrupted.
  ``jobs=0`` runs everything inline (one shared pool, one lock), the mode
  the stdio/test path uses.

``WorkerPool`` is the only process-pool engine: the daemon and batch
verification (:class:`~repro.verification.parallel.ParallelVerifier`) both
run on it.  Requests come in two shapes, and each becomes one normalised
question (:class:`_Question`: trace, run, fingerprint, options,
properties, mode, backend, pool key and cache key):

* **Workload specs** (the daemon): ``{"workload": "racy_fanin", "params":
  {"senders": 3}, "seed": 1}`` names a program from the CLI's workload
  registry, which the worker records and fingerprints itself.  A recording
  is a pure function of (workload, params, seed), so each worker memoises
  it (:class:`_RecordingMemo`): a repeated spec knows its keys without
  building, running or fingerprinting anything.  Recorded traces do not
  round-trip through JSON (payload terms are stringified on export), so
  the wire protocol never carries them.
* **Batch questions** (in-process callers): a recorded ``trace`` with its
  encoder ``options``, ``properties``, ``mode``, ``backend``
  (:class:`~repro.smt.backend.BackendSpec`) and cache ``key``.  The worker
  pipe pickles requests, so the trace travels as is, and the answer comes
  back as the :class:`~repro.verification.result.VerificationResult`
  itself (encoded problem, full witness, all solver statistics) rather
  than its JSON payload.

Every question is then answered on one path: recording → the worker's
:class:`~repro.verification.cache.ResultCache` (when it has one) →
:class:`SessionPool` → session verdict → store.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro import faults
from repro.encoding.encoder import EncoderOptions
from repro.encoding.properties import Property
from repro.program.ast import Program

# ``run_program`` and ``static_trace`` are not called here (recordings go
# through ``record_program``); perfbench/tracer.py binds both names.
from repro.program.interpreter import ProgramRun, run_program  # noqa: F401
from repro.program.statictrace import static_trace  # noqa: F401
from repro.service.protocol import result_to_payload
from repro.smt.backend import BackendSpec, available_backends
from repro.trace.fingerprint import trace_fingerprint
from repro.trace.trace import ExecutionTrace
from repro.utils.errors import (
    BackendUnavailableError,
    ReproError,
    ServiceError,
    SolverError,
    UnknownBackendError,
)
from repro.verification.cache import (
    CacheKey,
    ResultCache,
    make_cache_key,
    translate_witness,
)
from repro.verification.result import Verdict, VerificationResult
from repro.verification.session import (
    VERIFICATION_MODES,
    VerificationSession,
    record_program,
    resolve_mode,
)

__all__ = ["PoolKey", "SessionPool", "WorkerPool", "build_program", "DEFAULT_POOL_SIZE"]

#: Warm sessions kept per pool before least-recently-used eviction.
DEFAULT_POOL_SIZE = 32

#: Recordings memoised per worker before least-recently-used eviction.  An
#: entry is one trace and its run, far smaller than a warm session, so the
#: memo covers many more specs than the session pool does.
RECORDING_MEMO_SIZE = 256

#: How much past a request's deadline the worker gets before it is killed.
#: The in-solver soft deadline answers within milliseconds of the budget;
#: the hard kill only fires for backends that cannot poll a clock.  The
#: factor keeps the total response under 2x the requested deadline.
HARD_KILL_FACTOR = 1.5

#: A spec whose requests killed this many workers is *poison*: further
#: submissions answer ``UNKNOWN(reason="worker_crash")`` immediately
#: instead of burning a fresh worker per attempt.  Queries are pure, so a
#: spec that keeps crashing is deterministic about it.
POISON_CRASH_LIMIT = 3

#: Crash-ledger entries kept (least recently crashed dropped first).  A
#: dropped spec only loses its progress towards :data:`POISON_CRASH_LIMIT`.
CRASH_LEDGER_SIZE = 1024

#: Degradation events kept for the ``stats`` reply; older ones only count
#: towards the running total, so the reply stays bounded.
DEGRADATION_LOG_SIZE = 64

#: External backends that degrade to the in-tree engine when their solver
#: binary is lost mid-flight (see :meth:`_Executor._degraded_verdict`).
_DEGRADABLE_BACKENDS = ("smtlib-pipe",)


class _WorkerDied(ServiceError):
    """Internal: the worker process died mid-request (already respawned)."""


@dataclass(frozen=True)
class PoolKey:
    """Everything that determines which warm session can answer a request."""

    fingerprint: str
    options: str
    backend: str
    #: Batch questions only: the property set and mode, which a workload
    #: spec fixes by construction (its trace's assertions, any mode).
    question: str = ""

    def digest(self) -> str:
        joined = "\x1f".join(
            (
                self.fingerprint,
                self.options,
                self.backend,
                self.question,
            )
        )
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def _cli_defaults() -> argparse.Namespace:
    """The CLI's default arguments, parsed once.  Callers copy them, so no
    spec's params leak into the next build."""
    from repro.verification.cli import build_parser

    return build_parser().parse_args([])


def build_program(workload: str, params: Optional[Dict[str, object]]) -> Program:
    """Resolve a wire-level workload spec against the CLI registry."""
    from repro.verification.cli import WORKLOADS

    if workload not in WORKLOADS:
        raise ServiceError(
            f"unknown workload {workload!r}; available: "
            + ", ".join(sorted(WORKLOADS))
        )
    args = argparse.Namespace(**vars(_cli_defaults()))
    for name, value in (params or {}).items():
        if not hasattr(args, name):
            raise ServiceError(f"unknown workload parameter {name!r}")
        setattr(args, name, value)
    return WORKLOADS[workload].build(args)


#: The keys a workload spec may carry (``limit`` is the enumerate op's).
#: Any other key -- a typo or a retired option -- is an error reply, never
#: a silent answer under the defaults.
_SPEC_KEYS = frozenset(
    (
        "op",
        "workload",
        "params",
        "seed",
        "mode",
        "backend",
        "timeout_s",
        "match_pairs",
        "pair_fifo",
        "limit",
    )
)

def _options_signature(options: EncoderOptions) -> str:
    return f"{options.match_strategy.value};fifo={options.enforce_pair_fifo}"


@dataclass
class _PoolEntry:
    session: VerificationSession
    key: PoolKey
    hits: int = 0
    created: float = field(default_factory=time.monotonic)
    last_used: float = field(default_factory=time.monotonic)


class SessionPool:
    """LRU of warm sessions, keyed by :class:`PoolKey`."""

    def __init__(self, capacity: int = DEFAULT_POOL_SIZE) -> None:
        if capacity < 1:
            raise ServiceError(f"session pool needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PoolKey, _PoolEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: PoolKey) -> Optional[_PoolEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        entry.last_used = time.monotonic()
        self.hits += 1
        return entry

    def put(self, key: PoolKey, session: VerificationSession) -> _PoolEntry:
        entry = _PoolEntry(session=session, key=key)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def discard(self, key: PoolKey) -> bool:
        """Drop one warm session (a broken backend must not stay pooled)."""
        return self._entries.pop(key, None) is not None

    def invalidate(self, fingerprint: Optional[str] = None) -> int:
        """Drop warm sessions (all, or those of one trace fingerprint)."""
        if fingerprint is None:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped
        victims = [key for key in self._entries if key.fingerprint == fingerprint]
        for key in victims:
            del self._entries[key]
        return len(victims)

    def statistics(self) -> Dict[str, object]:
        now = time.monotonic()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": [
                {
                    "fingerprint": entry.key.fingerprint[:16],
                    "backend": entry.key.backend,
                    "hits": entry.hits,
                    "age_s": round(now - entry.created, 3),
                    "idle_s": round(now - entry.last_used, 3),
                }
                for entry in self._entries.values()
            ],
        }


class _Recording(NamedTuple):
    trace: ExecutionTrace
    #: ``None`` when the run deadlocked and ``trace`` is the static trace.
    run: Optional[ProgramRun]
    fingerprint: str


class _RecordingMemo:
    """LRU from a normalised workload spec to its recording.

    The key is (workload, params in key order, seed): a recording is a pure
    function of it.  A rejected spec raises before anything is stored, so
    it fails again on every repeat.  ``misses`` counts recordings made.
    """

    def __init__(self, capacity: int = RECORDING_MEMO_SIZE) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str, int], _Recording]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def record(
        self, workload: str, params: Optional[Dict[str, object]], seed: int
    ) -> _Recording:
        key = (workload, repr(sorted((params or {}).items())), seed)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        trace, run = record_program(build_program(workload, params), seed, "static")
        entry = _Recording(trace, run, trace_fingerprint(trace))
        self.misses += 1
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def invalidate(self, fingerprint: Optional[str] = None) -> None:
        """Drop recordings (all, or those of one trace fingerprint)."""
        victims = [
            key
            for key, entry in self._entries.items()
            if fingerprint is None or entry.fingerprint == fingerprint
        ]
        for key in victims:
            del self._entries[key]

    def statistics(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


# ---------------------------------------------------------------------------
# Request execution (runs inside a worker process, or inline)
# ---------------------------------------------------------------------------


class _Question(NamedTuple):
    """One verify request, normalised: what to solve and where to look.

    Workload specs and batch questions both become one, and
    :meth:`_Executor._verify` answers every question on the same path.
    """

    trace: ExecutionTrace
    #: The recording run, when the executor recorded ``trace`` itself.
    run: Optional[ProgramRun]
    fingerprint: str
    options: Optional[EncoderOptions]
    properties: Optional[Sequence[Property]]
    #: The mode the session is asked in.  A batch question's options and
    #: properties already encode its mode, so it asks in ``"safety"``.
    mode: str
    #: A registry name, or a batch question's :class:`BackendSpec`, whose
    #: construction kwargs only :meth:`BackendSpec.create` applies.
    backend: Union[str, BackendSpec]
    pool_key: PoolKey
    #: ``None`` for a workload spec when the executor has no cache.
    cache_key: Optional[CacheKey]


class _Executor:
    """Answer request specs against a session pool and a result cache.

    Every verify request takes one path: recording → :class:`ResultCache`
    → :class:`SessionPool` → session verdict → store.  A cache hit touches
    no session, so it neither encodes nor moves the pool's counters.
    """

    def __init__(
        self, pool: SessionPool, cache: Optional[ResultCache] = None
    ) -> None:
        self.pool = pool
        self.cache = cache
        self.recordings = _RecordingMemo()
        #: Structured degradation events (backend fallbacks, kernel
        #: faults), surfaced through the ``stats`` op and the stats RPC.
        self.degradations: List[Dict[str, object]] = []

    def execute(self, request: Dict[str, object]) -> Dict[str, object]:
        """Run one worker op; always returns a JSON-safe response dict."""
        try:
            op = request.get("op", "verify")
            if op == "stats":
                stats: Dict[str, object] = {
                    "pool": self.pool.statistics(),
                    "recordings": self.recordings.statistics(),
                }
                if self.cache is not None:
                    stats["cache"] = self.cache.statistics()
                stats["degradations"] = list(self.degradations)
                return {"ok": True, "stats": stats}
            if op == "invalidate":
                self.recordings.invalidate(request.get("fingerprint"))
                dropped = self.pool.invalidate(request.get("fingerprint"))
                return {"ok": True, "dropped": dropped}
            if op == "enumerate":
                return self._enumerate(request)
            if op == "verify":
                return self._verify(request)
            raise ServiceError(f"unknown worker op {op!r}")
        except ReproError as exc:
            return {"ok": False, "error": str(exc), "kind": type(exc).__name__}
        except Exception as exc:  # never let a request take the worker down
            return {"ok": False, "error": repr(exc), "kind": type(exc).__name__}

    def _question(self, request: Dict[str, object]) -> _Question:
        """Normalise one request (see the module docs).  A rejected spec
        raises before anything is recorded or pooled."""
        mode = request.get("mode", "safety")
        if mode not in VERIFICATION_MODES:
            raise ServiceError(
                f"unknown verification mode {mode!r}; pick one of {VERIFICATION_MODES}"
            )
        key: Optional[CacheKey] = request.get("key")
        if key is not None:
            # A batch question: the caller recorded and keyed it.  Its pool
            # key covers everything the cache key does, plus the full
            # backend spec, so a warm session only ever answers the exact
            # question it was built for.
            spec: BackendSpec = request["backend"]
            return _Question(
                trace=request["trace"],
                run=None,
                fingerprint=key.fingerprint,
                options=request.get("options"),
                properties=request.get("properties"),
                mode="safety",
                backend=spec,
                pool_key=PoolKey(
                    fingerprint=key.fingerprint,
                    options=key.options,
                    backend=f"{spec.name}{list(spec.kwargs)}",
                    question=f"{key.properties}\x1f{key.mode}",
                ),
                cache_key=key,
            )
        workload = request.get("workload")
        if not isinstance(workload, str):
            raise ServiceError("request needs a workload name")
        unsupported = sorted(set(request) - _SPEC_KEYS)
        if unsupported:
            raise ServiceError(
                f"unsupported request key(s) {', '.join(map(repr, unsupported))}; "
                f"a workload spec takes {', '.join(sorted(_SPEC_KEYS))}"
            )
        backend = str(request.get("backend") or "dpllt")
        if backend not in available_backends():
            raise UnknownBackendError(
                f"unknown solver backend {backend!r}; available: "
                + ", ".join(available_backends())
            )
        options = EncoderOptions.named(
            request.get("match_pairs"), request.get("pair_fifo", False)
        )
        recording = self.recordings.record(
            workload, request.get("params"), int(request.get("seed", 0))
        )
        cache_key = None
        if self.cache is not None:
            # The mode joins the key exactly as in the batch lane.
            resolved_options, properties = resolve_mode(mode, options, None)
            cache_key = make_cache_key(
                recording.trace,
                properties=properties,
                options=resolved_options,
                backend=backend,
                mode=mode,
                fingerprint=recording.fingerprint,
            )
        return _Question(
            trace=recording.trace,
            run=recording.run,
            fingerprint=recording.fingerprint,
            options=options,
            properties=None,
            mode=mode,
            backend=backend,
            pool_key=PoolKey(
                fingerprint=recording.fingerprint,
                options=_options_signature(options),
                backend=backend,
            ),
            cache_key=cache_key,
        )

    def _session(self, question: _Question) -> Tuple[VerificationSession, bool]:
        """The warm session for ``question``, built and pooled on a miss;
        returns it and whether it was a pool hit."""
        entry = self.pool.get(question.pool_key)
        if entry is not None:
            return entry.session, True
        backend = question.backend
        session = VerificationSession(
            question.trace,
            options=question.options,
            properties=question.properties,
            backend=backend if isinstance(backend, str) else backend.create(),
            program_run=question.run,
        )
        self.pool.put(question.pool_key, session)
        return session, False

    def _verify(self, request: Dict[str, object]) -> Dict[str, object]:
        question = self._question(request)
        timeout_s = request.get("timeout_s")
        timeout_s = None if timeout_s is None else float(timeout_s)
        del self.degradations[:-DEGRADATION_LOG_SIZE]
        events_before = len(self.degradations)
        failures_before = self.cache.store_failures if self.cache is not None else 0
        pool_hit = False
        result = None
        if self.cache is not None:
            # The shared cache answers across processes and daemon restarts.
            result = self.cache.lookup(question.cache_key, question.trace)
        if result is None:
            session, pool_hit = self._session(question)
            try:
                result = session.verdict(mode=question.mode, timeout_s=timeout_s)
            except (BackendUnavailableError, SolverError) as exc:
                session, result = self._degraded_verdict(
                    request, question, exc, timeout_s
                )
            if session.trace is not question.trace:
                # A warm session built from another recording of the same
                # question: re-express the witness in this trace's ids.  Its
                # encoded problem names the other recording's events, so it
                # stays behind, as it does for cache hits.
                witness = result.witness
                if witness is not None:
                    witness = translate_witness(witness, session.trace, question.trace)
                result = replace(
                    result,
                    witness=witness,
                    problem=None,
                    trace=question.trace,
                    program_run=question.run,
                )
            if (result.solver_statistics or {}).get("kernel_faults"):
                self._record_degradation(
                    layer="kernel",
                    from_="native-kernel",
                    to="pure-python",
                    reason="runtime kernel fault during propagation",
                    request=request,
                )
            if self.cache is not None:
                self.cache.store(question.cache_key, result)
        response = {
            "ok": True,
            "result": _reply_result(result, request),
            "pool_hit": pool_hit,
            "fingerprint": question.fingerprint,
        }
        if len(self.degradations) > events_before:
            # Ship this request's events with the answer: the pool keeps a
            # durable parent-side ledger, so a worker that later crashes
            # does not take its degradation history down with it.
            response["degradations"] = self.degradations[events_before:]
        if self.cache is not None and self.cache.store_failures > failures_before:
            response["store_failures"] = self.cache.store_failures - failures_before
        return response

    def _record_degradation(
        self, layer: str, from_: str, to: str, reason: str, request: Dict[str, object]
    ) -> None:
        self.degradations.append(
            {
                "layer": layer,
                "from": from_,
                "to": to,
                "reason": str(reason)[:200],
                "workload": _request_tag(request),
            }
        )

    def _degraded_verdict(
        self,
        request: Dict[str, object],
        question: _Question,
        exc: Exception,
        timeout_s: Optional[float],
    ) -> Tuple[VerificationSession, VerificationResult]:
        """Backend ladder: an external solver lost mid-flight falls back to
        the in-tree ``dpllt`` engine instead of failing the request.

        Decided by the backend name alone, in either lane.  Verification
        queries are pure, so re-solving on a different backend yields the
        same verdict; the fallback reuses the question's recording, is
        recorded as a structured degradation event and is stamped on the
        result's solver statistics.
        """
        backend = getattr(question.backend, "name", question.backend)
        if backend not in _DEGRADABLE_BACKENDS:
            raise exc
        self.pool.discard(question.pool_key)  # the broken session must not stay warm
        self._record_degradation(
            layer="backend",
            from_=backend,
            to="dpllt",
            reason=str(exc),
            request=request,
        )
        fallback = question._replace(
            backend="dpllt", pool_key=replace(question.pool_key, backend="dpllt")
        )
        session, _ = self._session(fallback)
        result = session.verdict(mode=fallback.mode, timeout_s=timeout_s)
        # A copy: the session memoizes its verdict object.
        statistics = dict(result.solver_statistics or {}, degraded_from=backend)
        return session, replace(result, solver_statistics=statistics)

    def _enumerate(self, request: Dict[str, object]) -> Dict[str, object]:
        limit = request.get("limit")
        limit = None if limit is None else int(limit)
        question = self._question(request)
        session, pool_hit = self._session(question)
        matchings = session.enumerate_pairings(limit=limit)
        return {
            "ok": True,
            "matchings": [
                sorted(matching.items()) for matching in matchings
            ],
            "pool_hit": pool_hit,
            "fingerprint": question.fingerprint,
        }


def _request_tag(request: Dict[str, object]) -> Optional[str]:
    """What a request is about, for fault rules' ``match`` and event logs:
    the workload name, or the program name a batch question's trace was
    recorded from."""
    trace = request.get("trace")
    return request.get("workload") if trace is None else trace.name


def _reply_result(result: VerificationResult, request: Dict[str, object]) -> object:
    """A batch question's answer is the result object (the pipe pickles
    it, and the caller reattaches its own trace and run); a workload
    spec's is its JSON payload, bound for the wire."""
    if "trace" in request:
        return replace(result, trace=None, program_run=None)
    return result_to_payload(result)


def _unknown_reason(response: Dict[str, object]) -> Optional[str]:
    result = response.get("result")
    if isinstance(result, VerificationResult):
        return result.unknown_reason
    return (result or {}).get("unknown_reason")


def _unknown_response(
    reason: str, request: Dict[str, object], solve_seconds: float = 0.0
) -> Dict[str, object]:
    """An honest UNKNOWN for a request the pool could not get answered."""
    result = VerificationResult(
        verdict=Verdict.UNKNOWN, unknown_reason=reason, solve_seconds=solve_seconds
    )
    return {"ok": True, "result": _reply_result(result, request), "pool_hit": False}


def _worker_main(conn, pool_size: int, cache_dir: Optional[str]) -> None:
    """Worker process entry: serve requests off one pipe until EOF."""
    cache = ResultCache(directory=cache_dir) if cache_dir else None
    executor = _Executor(SessionPool(capacity=pool_size), cache=cache)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:  # explicit shutdown
            return
        request_id, request = message
        if faults.ACTIVE is not None:
            rule = faults.draw("pool.worker.request", tag=str(_request_tag(request)))
            if rule is not None:
                if rule.kind in ("crash", "exit"):
                    os._exit(faults.EXIT_CODE)  # hard death mid-request
                time.sleep(rule.sleep_s)  # hang/slow: the hard kill decides
        response = executor.execute(request)
        if faults.ACTIVE is not None:
            rule = faults.draw("pool.worker.reply", tag=str(_request_tag(request)))
            if rule is not None and rule.kind in ("crash", "exit"):
                os._exit(faults.EXIT_CODE)  # death after solving, before reply
        try:
            conn.send((request_id, response))
        except (BrokenPipeError, OSError):
            return


class _PooledWorker:
    """One long-lived worker process plus the pipe and lock guarding it."""

    def __init__(self, context, pool_size: int, cache_dir: Optional[str]) -> None:
        self._context = context
        self._pool_size = pool_size
        self._cache_dir = cache_dir
        self.lock = threading.Lock()
        self.kills = 0
        self.crashes = 0
        #: Bumped on every respawn.  Respawns happen only under
        #: :attr:`lock`, and :meth:`_respawn` is generation-guarded, so a
        #: worker death observed by one caller can never be "fixed" twice
        #: or surface as a spurious death to the next caller.
        self.generation = 0
        self._spawn()

    def _spawn(self) -> None:
        parent, child = self._context.Pipe()
        self.conn = parent
        self.process = self._context.Process(
            target=_worker_main,
            args=(child, self._pool_size, self._cache_dir),
            daemon=True,
        )
        self.process.start()
        child.close()

    def _respawn(self, observed_generation: Optional[int] = None) -> None:
        """Replace the worker process.  Caller must hold :attr:`lock`.

        ``observed_generation`` makes the call idempotent: a caller that
        saw generation N die triggers at most one respawn for it — if the
        worker was already replaced (generation moved on), the fresh
        process is left alone.
        """
        if (
            observed_generation is not None
            and observed_generation != self.generation
        ):
            return
        self.close(graceful=False)
        self._spawn()
        self.generation += 1

    def solve(
        self, request: Dict[str, object], timeout_s: Optional[float]
    ) -> Dict[str, object]:
        """Send one request; on a blown deadline kill + respawn the worker.

        Caller must hold :attr:`lock`.  ``timeout_s`` is the *request's*
        deadline; the hard kill budget is ``HARD_KILL_FACTOR`` times that,
        giving the in-solver soft deadline every chance to answer first.
        Raises :class:`_WorkerDied` if the worker process died mid-request
        (the worker is respawned before the exception leaves, so the pool
        never routes to a dead process).
        """
        request_id = id(request)
        generation = self.generation
        try:
            self.conn.send((request_id, dict(request, timeout_s=timeout_s)))
        except (BrokenPipeError, OSError):
            self.crashes += 1
            self._respawn(generation)
            raise _WorkerDied(
                "verification worker died; it has been restarted"
            )
        budget = None if timeout_s is None else max(timeout_s * HARD_KILL_FACTOR, 0.05)
        deadline = None if budget is None else time.monotonic() + budget
        while True:
            wait = 60.0 if deadline is None else max(deadline - time.monotonic(), 0.0)
            try:
                if self.conn.poll(wait):
                    received_id, response = self.conn.recv()
                    if received_id != request_id:  # stale answer from a past kill
                        continue
                    return response
            except (EOFError, OSError):
                self.crashes += 1
                self._respawn(generation)
                raise _WorkerDied(
                    "verification worker died mid-request; it has been restarted"
                )
            if deadline is not None and time.monotonic() >= deadline:
                # The solver cannot be interrupted: cancel for real by
                # killing the process.  Its warm sessions die with it.
                self.kills += 1
                self._respawn(generation)
                # The canonical answer for a request whose worker was killed.
                return _unknown_response("timeout", request, timeout_s)

    def close(self, graceful: bool = True) -> None:
        try:
            if graceful:
                try:
                    self.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=2.0)


class WorkerPool:
    """Fixed set of warm workers with pool-key affinity routing.

    ``jobs >= 1`` spawns that many processes eagerly (so they inherit the
    parent's backend registry via fork).  ``jobs = 0`` solves inline in the
    calling thread against one shared :class:`SessionPool` — no process
    boundary, one lock, deterministic for tests; there an injected worker
    crash answers ``UNKNOWN(reason="worker_crash")`` at once, as there is
    no process to lose and respawn.
    """

    def __init__(
        self,
        jobs: int = 0,
        pool_size: int = DEFAULT_POOL_SIZE,
        cache_dir: Optional[str] = None,
    ) -> None:
        if jobs < 0:
            raise ServiceError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs
        self.pool_size = pool_size
        self.cache_dir = cache_dir
        self.timeouts = 0
        self.worker_crashes = 0
        self.redispatches = 0
        self.poisoned = 0
        #: Durable ledgers fed by deltas shipped back on responses; they
        #: survive the worker processes that produced them.
        self.degradation_events: Deque[Dict[str, object]] = deque(
            maxlen=DEGRADATION_LOG_SIZE
        )
        self.degradations_total = 0
        self.cache_store_failures = 0
        self._crash_counts: "OrderedDict[str, int]" = OrderedDict()
        #: Guards the counters and ledgers: batch lanes and daemon executor
        #: threads update them concurrently.
        self._ledger_lock = threading.Lock()
        self._closed = False
        if jobs == 0:
            cache = ResultCache(directory=cache_dir) if cache_dir else None
            self._inline = _Executor(SessionPool(capacity=pool_size), cache=cache)
            self._inline_lock = threading.Lock()
            self._workers: List[_PooledWorker] = []
        else:
            self._inline = None
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._workers = [
                _PooledWorker(context, pool_size, cache_dir) for _ in range(jobs)
            ]

    @staticmethod
    def _spec_key(request: Dict[str, object]) -> str:
        """Stable digest of everything that identifies one request's question."""
        question = request.get("key")
        if question is not None:  # a batch question names itself
            return question.digest()
        spec = (
            str(request.get("workload")),
            str(sorted((request.get("params") or {}).items())),
            str(request.get("seed", 0)),
            str(request.get("backend") or "dpllt"),
            str(request.get("match_pairs") or "endpoint"),
            str(bool(request.get("pair_fifo", False))),
        )
        return hashlib.sha256("\x1f".join(spec).encode("utf-8")).hexdigest()

    def _route(self, request: Dict[str, object]) -> _PooledWorker:
        """Affinity routing: same question → same worker → warm pool."""
        digest = self._spec_key(request)
        return self._workers[int(digest, 16) % len(self._workers)]

    def _count_crash(self, spec_key: Optional[str]) -> int:
        """Record one worker crash, against ``spec_key`` when given;
        returns that spec's crash count."""
        with self._ledger_lock:
            self.worker_crashes += 1
            if spec_key is None:
                return 0
            crashed = self._crash_counts.pop(spec_key, 0) + 1
            self._crash_counts[spec_key] = crashed
            if len(self._crash_counts) > CRASH_LEDGER_SIZE:
                self._crash_counts.popitem(last=False)
        return crashed

    @staticmethod
    def _crash_response(request: Dict[str, object]) -> Dict[str, object]:
        """The honest answer for a poison query: UNKNOWN, never a retry loop."""
        return _unknown_response("worker_crash", request)

    def _dispatch(
        self,
        worker: _PooledWorker,
        request: Dict[str, object],
        timeout_s: Optional[float],
    ) -> Dict[str, object]:
        """Solve on ``worker``, re-dispatching once if it dies mid-request.

        Queries are pure and idempotent, so one re-dispatch to the
        respawned worker is safe.  A spec that has crashed
        ``POISON_CRASH_LIMIT`` workers is *poison*: it answers
        ``UNKNOWN(reason="worker_crash")`` immediately (verify only —
        stats/invalidate ops never reach this path's poison ledger).
        """
        is_verify = request.get("op", "verify") == "verify"
        spec_key = self._spec_key(request) if is_verify else None
        if spec_key is not None:
            with self._ledger_lock:
                crashed = self._crash_counts.get(spec_key, 0)
            if crashed >= POISON_CRASH_LIMIT:
                return self._crash_response(request)
        with worker.lock:
            for attempt in (0, 1):
                try:
                    return worker.solve(request, timeout_s)
                except _WorkerDied:
                    if self._count_crash(spec_key) >= POISON_CRASH_LIMIT:
                        with self._ledger_lock:
                            self.poisoned += 1
                        return self._crash_response(request)
                    if attempt == 1:
                        raise  # the _WorkerDied maps to WORKER_CRASH on the wire
                    with self._ledger_lock:
                        self.redispatches += 1
        raise ServiceError("unreachable")  # pragma: no cover

    def submit(
        self, request: Dict[str, object], timeout_s: Optional[float] = None
    ) -> Dict[str, object]:
        """Solve one request (blocking); safe to call from several threads."""
        if self._closed:
            raise ServiceError("worker pool is closed")
        if self._inline is not None:
            if faults.ACTIVE is not None:
                rule = faults.draw(
                    "pool.worker.request", tag=str(_request_tag(request))
                )
                if rule is not None and rule.kind in ("crash", "exit"):
                    # No process to lose and respawn: a verify answers an
                    # honest UNKNOWN, any other op fails as a dead worker
                    # would (WORKER_CRASH on the wire).
                    self._count_crash(None)
                    if request.get("op", "verify") == "verify":
                        return self._crash_response(request)
                    raise _WorkerDied("inline verification worker crashed")
                if rule is not None:
                    time.sleep(rule.sleep_s)
            with self._inline_lock:
                response = self._inline.execute(
                    dict(request, timeout_s=timeout_s)
                    if timeout_s is not None
                    else request
                )
        else:
            worker = self._route(request)
            response = self._dispatch(worker, request, timeout_s)
        self._absorb(response)
        return response

    def _absorb(self, response: Dict[str, object]) -> None:
        """Move a response's ledger deltas into the durable parent ledgers."""
        events = response.pop("degradations", None)
        timed_out = response.get("ok") and _unknown_reason(response) == "timeout"
        with self._ledger_lock:
            if events:
                self.degradation_events.extend(events)
                self.degradations_total += len(events)
            self.cache_store_failures += response.pop("store_failures", 0)
            self.timeouts += bool(timed_out)

    def map(
        self, requests: Sequence[Dict[str, object]], timeout_s: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """Solve a batch of requests; responses come back in input order.

        Each request is queued on its affinity worker, so a repeated batch
        finds its warm sessions; a worker whose queue runs dry takes the
        last request from the longest other queue, so no worker idles while
        another has a backlog.  A request whose worker died under it twice
        answers ``UNKNOWN(reason="worker_crash")``: a batch has no client
        to resend it.
        """
        if self._closed:
            raise ServiceError("worker pool is closed")
        responses: List[Dict[str, object]] = [{}] * len(requests)

        def answer(worker: Optional[_PooledWorker], index: int) -> None:
            request = requests[index]
            try:
                if worker is None:
                    response = self.submit(request, timeout_s)
                else:
                    response = self._dispatch(worker, request, timeout_s)
                    self._absorb(response)
            except _WorkerDied:
                response = self._crash_response(request)
            responses[index] = response

        if self._inline is not None or len(requests) <= 1:
            for index in range(len(requests)):
                answer(None, index)
            return responses
        queues: Dict[int, Deque[int]] = {id(w): deque() for w in self._workers}
        for index, request in enumerate(requests):
            queues[id(self._route(request))].append(index)
        queues_lock = threading.Lock()

        def drain(worker: _PooledWorker) -> None:
            while True:
                with queues_lock:
                    own = queues[id(worker)]
                    if own:
                        index = own.popleft()
                    else:
                        backlog = max(queues.values(), key=len)
                        if not backlog:
                            return
                        index = backlog.pop()
                answer(worker, index)

        with ThreadPoolExecutor(max_workers=len(self._workers)) as threads:
            for lane in [threads.submit(drain, w) for w in self._workers]:
                lane.result()
        return responses

    def broadcast(self, request: Dict[str, object]) -> List[Dict[str, object]]:
        """Run one op (stats/invalidate) on every worker; returns all answers."""
        if self._closed:
            raise ServiceError("worker pool is closed")
        if self._inline is not None:
            with self._inline_lock:
                return [self._inline.execute(request)]
        responses = []
        for worker in self._workers:
            with worker.lock:
                responses.append(worker.solve(request, None))
        return responses

    def statistics(self) -> Dict[str, object]:
        """Aggregate pool + cache statistics across all workers."""
        per_worker = self.broadcast({"op": "stats"})
        pools = [r["stats"]["pool"] for r in per_worker if r.get("ok")]
        aggregate: Dict[str, object] = {
            "jobs": self.jobs,
            "timeouts": self.timeouts,
            "worker_kills": sum(w.kills for w in self._workers),
            "worker_crashes": self.worker_crashes,
            "redispatches": self.redispatches,
            "poisoned": self.poisoned,
            "degradations": list(self.degradation_events),
            "degradations_total": self.degradations_total,
            "pool": {
                "hits": sum(p["hits"] for p in pools),
                "misses": sum(p["misses"] for p in pools),
                "evictions": sum(p["evictions"] for p in pools),
                "entries": [entry for p in pools for entry in p["entries"]],
            },
            "recordings": {
                name: sum(
                    r["stats"]["recordings"][name] for r in per_worker if r.get("ok")
                )
                for name in ("entries", "hits", "misses")
            },
        }
        if faults.ACTIVE is not None:
            aggregate["faults"] = faults.ACTIVE.counters()
        caches = [
            r["stats"]["cache"]
            for r in per_worker
            if r.get("ok") and "cache" in r["stats"]
        ]
        if caches:
            aggregate["cache"] = {
                key: sum(c[key] for c in caches) for key in caches[0]
            }
            # The per-worker counter dies with a crashed worker; the
            # parent ledger has seen every failure a response reported.
            aggregate["cache"]["store_failures"] = max(
                aggregate["cache"]["store_failures"], self.cache_store_failures
            )
        return aggregate

    def invalidate(self, fingerprint: Optional[str] = None) -> int:
        """Drop warm sessions and memoised recordings in every worker;
        returns how many sessions were dropped."""
        responses = self.broadcast({"op": "invalidate", "fingerprint": fingerprint})
        return sum(r.get("dropped", 0) for r in responses if r.get("ok"))

    def close(self) -> None:
        self._closed = True
        for worker in self._workers:
            # The per-worker lock serializes shutdown against an in-flight
            # dispatch (and its respawn): without it, closing mid-kill can
            # leave a half-respawned process behind.
            with worker.lock:
                worker.close()
        self._workers = []
