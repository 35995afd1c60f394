"""Verification front-end: sessions, batch verification, replay, CLI.

The entry point is :class:`VerificationSession` (encode once, query many
times against one incremental solver backend) together with the batch
helper :func:`verify_many`.  Batch traffic scales out
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
    "Verdict",
    "VerificationResult",
    "ReplayOutcome",
    "deadlock_witness_schedule",
    "replay_deadlock_witness",
    "replay_witness",
    "witness_schedule",
]
