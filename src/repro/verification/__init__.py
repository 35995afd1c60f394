"""Verification front-end: sessions, the symbolic verifier shim, replay, CLI.

The primary entry point is :class:`VerificationSession` (encode once, query
many times against one incremental solver backend) together with the batch
helper :func:`verify_many`; :class:`SymbolicVerifier` remains as a
backwards-compatible call-per-query facade.  Batch traffic scales out
through :class:`ParallelVerifier` / :func:`verify_many_parallel`
(fingerprint dedup, dispatch on the service's worker pool) with answers
memoised in a :class:`ResultCache`.
"""

from repro.verification.result import Verdict, VerificationResult
from repro.verification.session import (
    VERIFICATION_MODES,
    VerificationSession,
    resolve_mode,
    verify_many,
)
from repro.verification.verifier import SymbolicVerifier
from repro.verification.replay import (
    ReplayOutcome,
    deadlock_witness_schedule,
    replay_deadlock_witness,
    replay_witness,
    witness_schedule,
)
from repro.verification.cache import (
    CACHE_SCHEMA_VERSION,
    CacheKey,
    ResultCache,
    make_cache_key,
)
from repro.verification.parallel import (
    ParallelVerifier,
    verify_many_parallel,
)

__all__ = [
    "VERIFICATION_MODES",
    "VerificationSession",
    "resolve_mode",
    "verify_many",
    "verify_many_parallel",
    "ParallelVerifier",
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "CacheKey",
    "make_cache_key",
    "SymbolicVerifier",
    "Verdict",
    "VerificationResult",
    "ReplayOutcome",
    "deadlock_witness_schedule",
    "replay_deadlock_witness",
    "replay_witness",
    "witness_schedule",
]
