"""repro — a full reproduction of "Symbolically Modeling Concurrent MCAPI
Executions" (Fischer, Mercer, Rungta; PPoPP 2011).

The package is organised bottom-up:

* :mod:`repro.smt` — a from-scratch SMT solving stack (CDCL SAT core,
  difference-logic / LIA / EUF theory solvers, an *incremental* DPLL(T)
  engine, SMT-LIB export) behind a pluggable
  :class:`~repro.smt.backend.SolverBackend` registry, standing in for the
  Yices solver the paper used — or delegating to a real external solver via
  the ``smtlib-pipe`` backend.
* :mod:`repro.mcapi` — a simulator of the MCAPI connectionless-message API
  with an explicitly non-deterministic delivery network.
* :mod:`repro.program` — a small concurrent modelling language plus a
  concolic interpreter that records execution traces.
* :mod:`repro.trace` — trace events and containers.
* :mod:`repro.matching` — match-pair generation (endpoint over-approximation
  and the paper's precise depth-first abstract execution).
* :mod:`repro.encoding` — the paper's contribution: the SMT encoding
  ``P = POrder ∧ PMatchPairs ∧ PUnique ∧ ¬PProp ∧ PEvents``.
* :mod:`repro.verification` — the session-based verification API,
  witness decoding and replay, and the ``mcapi-verify`` CLI.
* :mod:`repro.service` — verification as a service: a JSON-RPC daemon
  (``mcapi-verify serve``) with pooled warm sessions, per-request
  deadlines backed by killable workers, and a blocking
  :class:`~repro.service.client.ServiceClient`.
* :mod:`repro.baselines` — MCC-style, Elwakil-style, exhaustive and
  DPOR-style baselines used by the experiments.
* :mod:`repro.workloads` — the paper's Figure 1 program and parameterised
  benchmark workloads.

Quickstart — encode once, query many times::

    from repro import VerificationSession
    from repro.workloads import figure1_program

    session = VerificationSession.from_program(figure1_program(assert_a_is_y=True))
    print(session.verdict().describe())     # VIOLATION + counterexample
    session.feasibility()                   # the model admits executions
    for matching in session.pairings():     # every admissible pairing,
        print(matching)                     # solved warm on one backend

Batch traffic goes through :func:`verify_many`.
"""

__version__ = "2.0.0"

from repro.verification.result import Verdict, VerificationResult
from repro.verification.session import VerificationSession, verify_many
from repro.encoding.encoder import EncoderOptions, MatchPairStrategy, TraceEncoder
from repro.encoding.properties import DeadlockProperty, OrphanMessageProperty
from repro.program.interpreter import run_program
from repro.program.statictrace import static_trace
from repro.service.client import ServiceClient
from repro.smt.backend import (
    DpllTBackend,
    SmtLibPipeBackend,
    SolverBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.utils.errors import (
    BackendUnavailableError,
    IncompleteEnumerationError,
    ServiceError,
    UnknownBackendError,
)

__all__ = [
    "VerificationSession",
    "verify_many",
    "Verdict",
    "VerificationResult",
    "EncoderOptions",
    "MatchPairStrategy",
    "TraceEncoder",
    "DeadlockProperty",
    "OrphanMessageProperty",
    "run_program",
    "static_trace",
    "SolverBackend",
    "DpllTBackend",
    "SmtLibPipeBackend",
    "ServiceClient",
    "available_backends",
    "create_backend",
    "register_backend",
    "BackendUnavailableError",
    "IncompleteEnumerationError",
    "ServiceError",
    "UnknownBackendError",
    "__version__",
]
