"""Batch verification on the service's worker pool, with dedup and caching.

:func:`repro.verification.session.verify_many` answers a batch one item at a
time in one process.  :class:`ParallelVerifier` is the scale-out lane over
the same session machinery, and a thin client of
:class:`repro.service.pool.WorkerPool` — the engine the daemon runs on.  A
batch takes one path:

1. **Normalise** — programs are recorded with the verifier's seed (in
   deadlock mode a blocked recording falls back to the static trace).
2. **Cache** — each item's question key (fingerprint × properties ×
   encoder options × backend × mode) is looked up in the optional
   :class:`~repro.verification.cache.ResultCache`.
3. **Dedup** — the misses collapse onto distinct keys; each distinct
   question is solved once.
4. **Dispatch** — every distinct question goes to the pool as one request
   carrying its recorded trace.  A lone question is solved inline; a batch
   starts at most one worker per question.  Each question is queued on
   its affinity worker, so a repeat finds its warm session, and an idle
   worker takes questions off another's backlog.  The worker answers with
   the full result (encoded problem, witness with event order and clocks,
   solver statistics).
5. **Recovery** — the pool's: a worker that dies mid-request is respawned
   and the request re-dispatched once; a question that keeps killing
   workers answers ``UNKNOWN(reason="worker_crash")``; with worker
   processes, a request past 1.5x its deadline has its worker killed and
   answers ``UNKNOWN(reason="timeout")``.

**Invariants.**

* Results come back in **input order**, one per item, whatever mix of
  solving, dedup and cache hits produced them; every duplicate- or
  cache-answered item is marked ``from_cache=True``.
* **No solver state crosses a process boundary** — workers receive only
  picklable traces and :class:`~repro.smt.backend.BackendSpec`\\ s and
  build their own sessions.
* Two items share an answer **only if their full question key matches**,
  and a warm session only answers the question it was built for.
  Witnesses shared that way are re-expressed in each item's own trace
  identifiers via the canonical ``(thread, thread_index)`` naming — never
  copied verbatim.
* ``UNKNOWN`` is never cached, so a budget or crash artefact stays
  retryable.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.encoding.encoder import EncoderOptions
from repro.encoding.properties import Property
from repro.program.ast import Program
from repro.program.interpreter import ProgramRun
from repro.service.pool import WorkerPool
from repro.smt.backend import BackendSpec
from repro.trace.trace import ExecutionTrace
from repro.utils import errors
from repro.utils.errors import EncodingError, SolverError
from repro.verification.cache import (
    CacheKey,
    ResultCache,
    make_cache_key,
    translate_witness,
)
from repro.verification.result import VerificationResult
from repro.verification.session import record_program, resolve_mode

__all__ = ["ParallelVerifier", "verify_many_parallel"]


def _duplicate_result(
    source: VerificationResult, trace: ExecutionTrace
) -> VerificationResult:
    """Re-express a representative's result on a fingerprint-equal trace."""
    witness = None
    if source.witness is not None and source.trace is not None:
        witness = translate_witness(source.witness, source.trace, trace)
    return VerificationResult(
        verdict=source.verdict,
        witness=witness,
        solve_seconds=0.0,
        trace=trace,
        backend=source.backend,
        from_cache=True,
        unknown_reason=source.unknown_reason,
    )


def _raise_failure(response: Dict[str, object]) -> None:
    """Re-raise a worker's error response as the error it reports."""
    kind = getattr(errors, str(response.get("kind")), None)
    if not (isinstance(kind, type) and issubclass(kind, errors.ReproError)):
        kind = SolverError
    raise kind(response.get("error", "verification request failed"))


class ParallelVerifier:
    """Verify batches by dispatching distinct questions to a worker pool.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means ``os.cpu_count()``.  ``1``
        solves in-process on an inline pool (still with dedup and caching).
    backend:
        Registry name or :class:`BackendSpec` — **not** a live backend;
        workers must construct their own solver state.
    cache:
        ``None`` (no cross-batch cache), a :class:`ResultCache`, or
        ``"memory"`` for a fresh in-memory LRU owned by this verifier.
        In-batch fingerprint dedup happens regardless.
    cache_dir:
        Convenience: a directory for a disk-backed :class:`ResultCache`
        (ignored when ``cache`` is an explicit instance).
    mode:
        The question asked of every trace: ``"safety"`` (default),
        ``"deadlock"`` or ``"orphan"`` — resolved into encoder options and
        a property set up front (see
        :func:`repro.verification.session.resolve_mode`), and embedded in
        the cache key so answers from different modes never collide.  In
        deadlock mode, programs whose recording run blocks are normalised
        via their static symbolic trace.
    timeout_s:
        Per-question budget.  In every lane it is the in-solver wall-clock
        deadline: a check past it answers ``UNKNOWN(reason="timeout")``
        (never cached).  With worker processes it is also the pool's hard
        deadline: a worker still busy ``1.5 * timeout_s`` (at least 50 ms)
        after dispatch is killed, and its question answers
        ``UNKNOWN(reason="timeout")``.  That clock includes encoding and
        transfer, which the in-solver deadline does not, so a budget
        shorter than a question's encoding can time out with processes
        where the inline lane (``jobs=1``, or a lone question) answers.

    The verifier owns one :class:`WorkerPool`, created on first use and
    shut down by :meth:`close` (or on leaving a ``with`` block), so
    repeated batches reuse its warm sessions and share its poison ledger
    (until a larger batch replaces the pool, see :meth:`_pool_for`).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        backend: Union[str, BackendSpec, None] = None,
        options: Optional[EncoderOptions] = None,
        properties: Optional[Sequence[Property]] = None,
        cache: Union[ResultCache, str, None] = None,
        cache_dir: Optional[str] = None,
        seed: int = 0,
        max_solver_iterations: int = 200_000,
        mode: str = "safety",
        timeout_s: Optional[float] = None,
    ) -> None:
        self.jobs = os.cpu_count() or 1 if jobs is None else jobs
        if self.jobs < 1:
            raise SolverError(f"jobs must be >= 1, got {self.jobs}")
        self.mode = mode
        self.options, self.properties = resolve_mode(mode, options, properties)
        self.spec = BackendSpec.of(backend, max_iterations=max_solver_iterations)
        self.seed = seed
        #: Per-question budget (see the class docs).
        self.timeout_s = timeout_s
        if isinstance(cache, str):
            if cache != "memory":
                raise SolverError(f"unknown cache spec {cache!r}; use 'memory'")
            cache = ResultCache()
        if cache is None and cache_dir is not None:
            cache = ResultCache(directory=cache_dir)
        self.cache = cache
        self._pool: Optional[WorkerPool] = None

    @property
    def pool(self) -> WorkerPool:
        """The verifier's engine; ``jobs=1`` maps to an inline pool."""
        if self._pool is None:
            self._pool = WorkerPool(jobs=0 if self.jobs == 1 else self.jobs)
        return self._pool

    def _pool_for(self, questions: int) -> WorkerPool:
        """The engine for a batch of ``questions`` distinct questions.

        Worker processes only pay off for two or more questions: the pool
        starts with ``min(jobs, questions)`` workers, or inline when that is
        one.  A later batch that could use more workers replaces it (its
        warm sessions and poison ledger go with it).
        """
        workers = min(self.jobs, questions)
        workers = 0 if workers == 1 else workers
        if self._pool is not None and self._pool.jobs < workers:
            self.close()
        if self._pool is None:
            self._pool = WorkerPool(jobs=workers)
        return self._pool

    def close(self) -> None:
        """Shut the pool down (a later batch starts a fresh one)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelVerifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _key_for(self, trace: ExecutionTrace) -> CacheKey:
        return make_cache_key(
            trace,
            properties=self.properties,
            options=self.options,
            backend=self.spec.name,
            mode=self.mode,
        )

    # ------------------------------------------------------------------ batch

    def _normalise(
        self, items: Iterable[Union[Program, ExecutionTrace]]
    ) -> List[Tuple[ExecutionTrace, Optional[ProgramRun]]]:
        # In deadlock mode a blocked recording falls back to the static
        # symbolic trace, which covers branch-free programs exactly.
        on_deadlock = "static" if self.mode == "deadlock" else "raise"
        normalised: List[Tuple[ExecutionTrace, Optional[ProgramRun]]] = []
        for item in items:
            if isinstance(item, Program):
                normalised.append(record_program(item, self.seed, on_deadlock))
            elif isinstance(item, ExecutionTrace):
                normalised.append((item, None))
            else:
                raise EncodingError(
                    "verify_many_parallel accepts Programs or ExecutionTraces, "
                    f"got {item!r}"
                )
        return normalised

    def verify_many(
        self, items: Iterable[Union[Program, ExecutionTrace]]
    ) -> List[VerificationResult]:
        """Verify the batch; results come back in input order."""
        entries = self._normalise(items)
        results: List[Optional[VerificationResult]] = [None] * len(entries)
        pending: Dict[CacheKey, List[int]] = {}
        for index, (trace, run) in enumerate(entries):
            key = self._key_for(trace)
            cached = self.cache.lookup(key, trace) if self.cache is not None else None
            if cached is not None:
                cached.program_run = run
                results[index] = cached
            else:
                pending.setdefault(key, []).append(index)

        requests = [
            {
                "op": "verify",
                "key": key,
                "trace": entries[indices[0]][0],
                "options": self.options,
                "properties": self.properties,
                "mode": self.mode,
                "backend": self.spec,
            }
            for key, indices in pending.items()
        ]
        # A fully cached batch never starts the pool's worker processes.
        responses = (
            self._pool_for(len(requests)).map(requests, self.timeout_s)
            if requests
            else []
        )

        for (key, indices), response in zip(pending.items(), responses):
            if not response.get("ok"):
                _raise_failure(response)
            representative: VerificationResult = response["result"]
            # The worker answered in this trace's ids and sent no trace back.
            representative.trace = entries[indices[0]][0]
            if self.cache is not None:
                self.cache.store(key, representative)
            for position, index in enumerate(indices):
                trace, run = entries[index]
                result = (
                    representative
                    if position == 0
                    else _duplicate_result(representative, trace)
                )
                result.program_run = run
                results[index] = result
        return [result for result in results if result is not None]


def verify_many_parallel(
    items: Iterable[Union[Program, ExecutionTrace]],
    jobs: Optional[int] = None,
    **kwargs,
) -> List[VerificationResult]:
    """One-shot front door over :class:`ParallelVerifier`.

    ``verify_many_parallel(batch, jobs=4)`` dispatches the batch's distinct
    questions to four worker processes and shuts them down afterwards;
    every other keyword is forwarded to :class:`ParallelVerifier`.
    """
    with ParallelVerifier(jobs=jobs, **kwargs) as verifier:
        return verifier.verify_many(items)
