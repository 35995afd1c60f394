"""Exception hierarchy for the repro package.

A single root exception (:class:`ReproError`) makes it easy for callers to
catch anything raised by the library without also swallowing unrelated
programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class SolverError(ReproError):
    """Raised for misuse of the SMT solver or internal solver failures."""


class UnknownBackendError(SolverError):
    """Raised when a solver backend name does not resolve in the registry."""


class BackendUnavailableError(SolverError):
    """Raised when a registered backend cannot run in this environment.

    The canonical case is :class:`repro.smt.backend.SmtLibPipeBackend`
    when no external SMT solver binary is configured.
    """


class ResourceLimitError(SolverError):
    """Raised when a solver exhausts a fixed work cap before deciding.

    The canonical case is the LIA branch-and-bound node cap.  Backends
    report it as an ``UNKNOWN`` answer with ``unknown_reason`` set to
    :attr:`reason`, never as a failure.
    """

    reason = "resource"


class IncompleteEnumerationError(SolverError):
    """Raised when a pairing enumeration stops on UNKNOWN instead of UNSAT.

    The matchings discovered before the solver gave up are available on the
    :attr:`pairings` attribute; callers must not treat them as complete.
    """

    def __init__(self, message: str, pairings=()) -> None:
        super().__init__(message)
        self.pairings = list(pairings)


class EncodingError(ReproError):
    """Raised when a trace cannot be encoded into an SMT problem."""


class McapiError(ReproError):
    """Raised by the MCAPI runtime simulator for API misuse.

    Mirrors the error statuses of the C API: most runtime routines also
    report a status code, but programming errors (using an endpoint that
    was never created, waiting on a foreign request handle, ...) raise.
    """


class ProgramError(ReproError):
    """Raised for malformed programs in the modelling language."""


class TraceError(ReproError):
    """Raised for malformed or inconsistent execution traces."""


class PropertyError(ReproError):
    """Raised for malformed correctness properties."""


class MatchPairError(ReproError):
    """Raised when match-pair generation fails or is given a bad trace."""


class CacheSchemaError(ReproError):
    """Raised when an on-disk result store uses an incompatible key layout.

    The cache refuses such a store outright (rather than silently serving
    stale or mis-keyed answers, or crashing mid-lookup): the fix is to
    point the cache at a fresh directory or delete the old one.
    """


class ServiceError(ReproError):
    """Raised for failures in the verification service layer.

    Covers both sides of the wire: a client that cannot reach or talk to a
    daemon, and a daemon whose worker pool is in an unusable state.
    """


class ServiceProtocolError(ServiceError):
    """Raised when a service peer sends a malformed or oversized frame."""
