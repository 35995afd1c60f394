"""Pluggable solver backends behind a common protocol.

The verification layer never talks to a concrete solver class; it talks to a
:class:`SolverBackend` — the minimal incremental interface (``add`` /
``push`` / ``pop`` / ``check`` with assumptions / ``model``) that the
session API is written against.  Two implementations ship in-tree:

* :class:`DpllTBackend` — the default.  Wraps
  :class:`~repro.smt.dpllt.IncrementalDpllTEngine`, which keeps its SAT
  core, Tseitin cache and learned theory lemmas alive across ``check``
  calls instead of rebuilding the engine per query.
* :class:`SmtLibPipeBackend` — keeps one external solver binary (z3,
  cvc5, yices-smt2, ...) alive and drives it incrementally over SMT-LIB v2
  on its stdin.  The binary is named by the ``REPRO_SMT_SOLVER``
  environment variable or an explicit ``command``.  This is the seam the
  paper's tool used for Yices; when no binary is configured the backend
  reports itself unavailable and callers skip it gracefully.

Backends are resolved by name through a registry so that deployments can
plug in their own (:func:`register_backend`).
"""

from __future__ import annotations

import os
import re
import select
import shlex
import shutil
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

try:  # Protocol is 3.8+; fall back to a plain base class elsewhere.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient pythons only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro import faults
from repro.smt.dpllt import CheckResult, IncrementalDpllTEngine
from repro.smt.models import Model
from repro.smt.sat import DEFAULT_REDUCE_BASE, DEFAULT_THEORY_BUMP
from repro.smt.smtlib import _collect_declarations
from repro.smt.terms import Term, free_variables
from repro.utils.errors import (
    BackendUnavailableError,
    ResourceLimitError,
    SolverError,
    UnknownBackendError,
)

__all__ = [
    "SolverBackend",
    "BackendSpec",
    "DpllTBackend",
    "SmtLibPipeBackend",
    "register_backend",
    "create_backend",
    "available_backends",
    "SMTLIB_SOLVER_ENV",
]

#: Environment variable naming the external SMT-LIB solver command.
SMTLIB_SOLVER_ENV = "REPRO_SMT_SOLVER"


@dataclass(frozen=True)
class BackendSpec:
    """A picklable description of how to build a backend.

    Live backends hold solver state (engines, subprocess handles) and must
    never cross a process boundary; worker processes instead receive a
    ``BackendSpec`` — registry name plus construction kwargs — and build
    their own instance with :meth:`create`.  Frozen and hashable so it can
    double as (part of) a cache key.
    """

    name: str = "dpllt"
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(
        cls, spec: Union[str, "BackendSpec", None], **kwargs
    ) -> "BackendSpec":
        """Normalise a registry name / spec / None into a ``BackendSpec``.

        Live backend instances are rejected: they are exactly what this
        type exists to avoid shipping between processes.
        """
        if spec is None:
            spec = DpllTBackend.name
        if isinstance(spec, cls):
            if not kwargs:
                return spec
            merged = dict(spec.kwargs)
            merged.update(kwargs)
            return cls(spec.name, tuple(sorted(merged.items())))
        if isinstance(spec, str):
            return cls(spec, tuple(sorted(kwargs.items())))
        raise SolverError(
            "worker-safe backend construction needs a registry name or "
            f"BackendSpec, not a live backend instance: {spec!r}"
        )

    def create(self) -> "SolverBackend":
        """Build a fresh backend in the calling process."""
        return create_backend(self.name, **dict(self.kwargs))


@runtime_checkable
class SolverBackend(Protocol):
    """The incremental solving interface every backend provides.

    ``check`` takes *assumptions*: Boolean terms that hold for that single
    call only.  Implementations must keep whatever state they can between
    calls — the whole point of the backend seam is that callers may issue
    thousands of checks against one assertion set.
    """

    name: str

    def add(self, *terms: Term) -> None: ...

    def add_all(self, terms: Iterable[Term]) -> None: ...

    def push(self) -> None: ...

    def pop(self) -> None: ...

    def check(self, *assumptions: Term) -> CheckResult: ...

    def model(self) -> Model: ...

    def statistics(self) -> Dict[str, int]: ...


def _validate_assertion(term: Term) -> Term:
    if not isinstance(term, Term):
        raise SolverError(f"backends accept Terms, got {term!r}")
    if not term.sort.is_bool:
        raise SolverError(f"assertions must be Boolean, got sort {term.sort}")
    return term


class DpllTBackend:
    """The in-tree incremental DPLL(T) backend (the default).

    One :class:`~repro.smt.dpllt.IncrementalDpllTEngine` lives for the
    backend's whole lifetime: learned clauses, variable activities, saved
    phases and theory lemmas all carry over from one ``check`` to the next,
    and assumption-scoped queries never disturb the assertion set.
    """

    name = "dpllt"

    def __init__(
        self,
        max_iterations: int = 200_000,
        reduce_db: bool = True,
        reduce_base: int = DEFAULT_REDUCE_BASE,
        theory_bump: float = DEFAULT_THEORY_BUMP,
        idl_propagation: bool = True,
    ) -> None:
        self._engine = IncrementalDpllTEngine(
            max_iterations=max_iterations,
            reduce_db=reduce_db,
            reduce_base=reduce_base,
            theory_bump=theory_bump,
            idl_propagation=idl_propagation,
        )
        #: Why the last check answered ``UNKNOWN``, when a cap says so.
        self.unknown_reason: Optional[str] = None

    @property
    def engine(self) -> IncrementalDpllTEngine:
        """The underlying engine (exposed for tests and diagnostics)."""
        return self._engine

    def add(self, *terms: Term) -> None:
        self.add_all(terms)

    def add_all(self, terms: Iterable[Term]) -> None:
        # Every term is validated before any is asserted, so a rejected
        # batch leaves the assertion set untouched.
        self._engine.add_all([_validate_assertion(term) for term in terms])

    def push(self) -> None:
        self._engine.push()

    def pop(self) -> None:
        self._engine.pop()

    def check(self, *assumptions: Term) -> CheckResult:
        """Decide the assertions plus ``assumptions``.

        A work cap that binds — the engine's ``max_iterations`` budget on
        theory conflicts, or the LIA branch-and-bound node limit inside a
        theory — answers ``UNKNOWN`` and names the cap in
        :attr:`unknown_reason`; the next check starts clean.
        """
        self.unknown_reason = None
        try:
            result = self._engine.check(*assumptions)
        except ResourceLimitError as exc:
            self.unknown_reason = exc.reason
            return CheckResult.UNKNOWN
        if result is CheckResult.UNKNOWN and self._engine.budget_exhausted:
            self.unknown_reason = ResourceLimitError.reason
        return result

    def model(self) -> Model:
        return self._engine.model()

    def set_idl_propagation(self, enabled: bool) -> None:
        """Pause/resume IDL bound propagation between checks.

        Used by enumeration loops (e.g.
        :meth:`repro.verification.session.VerificationSession.pairings`)
        where streaming SAT models does not profit from the lane.
        """
        self._engine.set_idl_propagation(enabled)

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Bound later checks by a ``time.monotonic`` instant (None clears).

        A check running past the deadline returns
        :data:`~repro.smt.dpllt.CheckResult.UNKNOWN`; learned state
        survives, so a retry with a larger budget starts warm.
        """
        self._engine.set_deadline(deadline)

    def statistics(self) -> Dict[str, int]:
        if self._engine.total_checks == 0:
            return {}
        stats = self._engine.stats.as_dict()
        stats["checks"] = self._engine.total_checks
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DpllTBackend(checks={self._engine.total_checks})"


# ---------------------------------------------------------------------------
# SMT-LIB output parsing
# ---------------------------------------------------------------------------


_SEXPR_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _parse_sexprs(text: str):
    """Parse SMT-LIB output into nested lists of token strings."""
    stack: List[list] = [[]]
    for token in _SEXPR_TOKEN.findall(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            if len(stack) == 1:
                raise SolverError("unbalanced ')' in solver output")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    return stack[0]


def _eval_smtlib_value(expr) -> Optional[int]:
    """Evaluate a ground numeric model value like ``5`` or ``(- 5)``."""
    if isinstance(expr, str):
        try:
            return int(expr)
        except ValueError:
            return None
    if isinstance(expr, list) and expr and expr[0] == "-" and len(expr) == 2:
        inner = _eval_smtlib_value(expr[1])
        return None if inner is None else -inner
    return None


def _collect_define_funs(exprs, values: Dict[str, object]) -> None:
    for expr in exprs:
        if not isinstance(expr, list):
            continue
        if expr and expr[0] == "define-fun" and len(expr) >= 5:
            _, name, args, sort = expr[0], expr[1], expr[2], expr[3]
            if args != []:
                continue  # non-nullary function: not a variable value
            body = expr[4]
            if sort == "Bool" and isinstance(body, str):
                values[str(name)] = body == "true"
            elif sort == "Int":
                value = _eval_smtlib_value(body)
                if value is not None:
                    values[str(name)] = value
            # Uninterpreted-sort values are solver-specific; skipped.
        else:
            _collect_define_funs(expr, values)


# ---------------------------------------------------------------------------
# Pooled SMT-LIB pipe backend
# ---------------------------------------------------------------------------


class _PipeTimeout(Exception):
    """Internal: no pipe output arrived before the I/O deadline."""


class _PipeClosed(Exception):
    """Internal: the piped solver process died or desynchronised."""


class SmtLibPipeBackend:
    """Keep one external solver alive and talk SMT-LIB over its stdin pipe.

    The backend holds a single solver session open and drives it
    incrementally, so no ``check`` pays a process launch or a full script
    re-parse: assumption-scoped checks use
    ``(push 1)`` / ``(pop 1)``, and the session is recycled in place with
    ``(reset-assertions)`` after :attr:`recycle_after` checks so solver-side
    garbage (learned lemmas for long-dead scopes, allocator growth) cannot
    accumulate without bound.  ``(set-option :global-declarations true)``
    keeps declarations alive across the recycle, so only assertions replay.

    Synchronisation uses echo markers: every command batch ends with
    ``(echo "repro-sync-N")`` and the reader collects output lines until the
    marker comes back, so error chatter can never desynchronise verdict
    parsing.  A crashed or desynchronised session is restarted and the
    mirrored assertion stack replayed — one retry per check, then the error
    surfaces as a :class:`~repro.utils.errors.SolverError`.
    """

    name = "smtlib-pipe"

    def __init__(
        self,
        command: Union[str, Sequence[str], None] = None,
        timeout: float = 60.0,
        recycle_after: int = 256,
        logic: str = "ALL",
        max_iterations: Optional[int] = None,  # accepted for factory parity
        reduce_db: Optional[bool] = None,  # accepted for factory parity
        reduce_base: Optional[int] = None,  # accepted for factory parity
        theory_bump: Optional[float] = None,  # accepted for factory parity
        idl_propagation: Optional[bool] = None,  # accepted for factory parity
    ) -> None:
        if command is None:
            command = os.environ.get(SMTLIB_SOLVER_ENV)
        if not command:
            raise BackendUnavailableError(
                "no external SMT solver configured; set the "
                f"{SMTLIB_SOLVER_ENV} environment variable (e.g. to 'z3') or "
                "pass command= explicitly"
            )
        self._command = shlex.split(command) if isinstance(command, str) else list(command)
        if shutil.which(self._command[0]) is None:
            raise BackendUnavailableError(
                f"external SMT solver binary {self._command[0]!r} not found on PATH"
            )
        self._timeout = timeout
        self._recycle_after = recycle_after
        self._logic = logic
        self._deadline: Optional[float] = None
        self._assertions: List[Term] = []
        self._scopes: List[int] = []
        self._declared: Set[str] = set()
        self._proc: Optional[subprocess.Popen] = None
        self._buffer = b""
        self._marker = 0
        self._checks = 0
        self._checks_since_reset = 0
        self._recycles = 0
        self._restarts = 0
        self._last_result: Optional[CheckResult] = None
        self._last_model: Optional[Model] = None

    @classmethod
    def is_available(cls, command: Union[str, Sequence[str], None] = None) -> bool:
        """True when a usable solver command is configured on this host."""
        try:
            cls(command=command)
        except BackendUnavailableError:
            return False
        return True

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Bound later checks by a ``time.monotonic`` instant (None clears).

        A check running past the deadline returns
        :data:`~repro.smt.dpllt.CheckResult.UNKNOWN`; the wedged session is
        discarded, so the next check starts from a fresh replayed process.
        """
        self._deadline = deadline

    # -- assertion management --------------------------------------------------

    def add(self, *terms: Term) -> None:
        added = [_validate_assertion(term) for term in terms]
        self._assertions.extend(added)
        self._last_result = None
        self._last_model = None
        if self._proc is not None:
            try:
                self._write(
                    self._declaration_lines(added)
                    + [f"(assert {term})" for term in added]
                )
            except _PipeClosed:
                self._shutdown()  # replayed lazily at the next check

    def add_all(self, terms: Iterable[Term]) -> None:
        self.add(*terms)

    def push(self) -> None:
        self._scopes.append(len(self._assertions))
        if self._proc is not None:
            try:
                self._write(["(push 1)"])
            except _PipeClosed:
                self._shutdown()

    def pop(self) -> None:
        if not self._scopes:
            raise SolverError("pop without matching push")
        size = self._scopes.pop()
        del self._assertions[size:]
        self._last_result = None
        self._last_model = None
        if self._proc is not None:
            try:
                self._write(["(pop 1)"])
            except _PipeClosed:
                self._shutdown()

    # -- solving ----------------------------------------------------------------

    def check(self, *assumptions: Term) -> CheckResult:
        checked = [_validate_assertion(a) for a in assumptions]
        for attempt in (0, 1):
            try:
                return self._check_once(checked)
            except _PipeClosed:
                self._shutdown()
                self._restarts += 1
                if attempt:
                    raise SolverError(
                        f"external solver {self._command[0]!r} failed twice on "
                        "one check (crashed or produced no verdict)"
                    )
            except _PipeTimeout as exc:
                # A wedged mid-solve session cannot be trusted for reuse.
                self._shutdown()
                if self._deadline is not None and time.monotonic() >= self._deadline:
                    self._checks += 1
                    self._last_result = CheckResult.UNKNOWN
                    self._last_model = None
                    return CheckResult.UNKNOWN
                raise SolverError(
                    f"external solver timed out after {self._timeout}s"
                ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def model(self) -> Model:
        if self._last_result is not CheckResult.SAT or self._last_model is None:
            raise SolverError("model() requires the previous check() to be SAT")
        return self._last_model

    def statistics(self) -> Dict[str, int]:
        if self._checks == 0:
            return {}
        stats = {"external_checks": self._checks}
        if self._recycles:
            stats["pipe_recycles"] = self._recycles
        if self._restarts:
            stats["pipe_restarts"] = self._restarts
        return stats

    def close(self) -> None:
        """Terminate the solver session (restarted on demand by ``check``)."""
        self._shutdown()

    def __del__(self):  # pragma: no cover - interpreter shutdown best effort
        try:
            self._shutdown()
        except Exception:
            pass

    # -- internals ----------------------------------------------------------------

    def _check_once(self, assumptions: List[Term]) -> CheckResult:
        self._ensure_session()
        if faults.ACTIVE is not None:
            rule = faults.draw("pipe.check")
            if rule is not None:
                if rule.kind in ("crash", "exit"):
                    # Kill the real subprocess so the real recovery path
                    # (restart + declaration replay + one retry) runs.
                    self._proc.kill()
                    self._proc.wait()
                else:
                    time.sleep(rule.sleep_s)
        if self._recycle_after and self._checks_since_reset >= self._recycle_after:
            self._soft_reset()
        commands = self._declaration_lines(assumptions)
        commands.append("(push 1)")
        commands.extend(f"(assert {a})" for a in assumptions)
        commands.append("(check-sat)")
        self._write(commands)
        deadline = self._io_deadline()
        verdict: Optional[CheckResult] = None
        for line in self._sync(deadline):
            if verdict is None and line in ("sat", "unsat", "unknown"):
                verdict = CheckResult(line)
        if verdict is None:
            raise _PipeClosed()  # desync: rebuild the session and retry
        model_lines: Optional[List[str]] = None
        if verdict is CheckResult.SAT:
            self._write(["(get-model)"])
            model_lines = self._sync(deadline)
        # Close the check's scope before parsing: a model the parser
        # rejects must not leave the assumptions asserted in the session.
        self._write(["(pop 1)"])
        self._last_result = None
        self._last_model = None
        model: Optional[Model] = None
        if model_lines is not None:
            model = self._parse_model(model_lines, self._assertions + assumptions)
        self._checks += 1
        self._checks_since_reset += 1
        self._last_result = verdict
        self._last_model = model
        return verdict

    def _parse_model(self, lines: List[str], terms: Sequence[Term]) -> Model:
        values: Dict[str, object] = {}
        _collect_define_funs(_parse_sexprs("\n".join(lines)), values)
        names: Dict[str, object] = {}
        for term in terms:
            names.update(free_variables(term))
        if names and not values:
            raise SolverError(
                "external solver answered sat but returned no model:\n"
                + "\n".join(lines)
            )
        for name, sort in names.items():
            if name not in values:
                values[name] = False if getattr(sort, "is_bool", False) else 0
        return Model(values)  # type: ignore[arg-type]

    def _declaration_lines(self, terms: Sequence[Term]) -> List[str]:
        variables, sorts, functions = _collect_declarations(list(terms))
        lines: List[str] = []
        for sort in sorts:
            if sort.name not in self._declared:
                self._declared.add(sort.name)
                lines.append(f"(declare-sort {sort.name} 0)")
        for name, sort in variables:
            if name not in self._declared:
                self._declared.add(name)
                lines.append(f"(declare-fun {name} () {sort.name})")
        for name, domain, codomain in functions:
            if name not in self._declared:
                self._declared.add(name)
                domain_str = " ".join(s.name for s in domain)
                lines.append(f"(declare-fun {name} ({domain_str}) {codomain.name})")
        return lines

    def _ensure_session(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        self._shutdown()
        self._start()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
        except OSError as exc:
            raise BackendUnavailableError(
                f"could not start external SMT solver {self._command[0]!r}: {exc}"
            ) from exc
        self._buffer = b""
        self._declared = set()
        self._checks_since_reset = 0
        self._write(
            [
                "(set-option :print-success false)",
                "(set-option :global-declarations true)",
                f"(set-logic {self._logic})",
            ]
        )
        self._replay()

    def _soft_reset(self) -> None:
        self._recycles += 1
        self._checks_since_reset = 0
        # reset-assertions pops every level and drops every assertion, but
        # :global-declarations keeps symbols alive, so only assertions replay.
        self._write(["(reset-assertions)"])
        self._replay()

    def _replay(self) -> None:
        commands = self._declaration_lines(self._assertions)
        prev = 0
        for size in self._scopes:
            commands.extend(f"(assert {t})" for t in self._assertions[prev:size])
            commands.append("(push 1)")
            prev = size
        commands.extend(f"(assert {t})" for t in self._assertions[prev:])
        if commands:
            self._write(commands)

    def _shutdown(self) -> None:
        proc, self._proc = self._proc, None
        self._buffer = b""
        if proc is None:
            return
        try:
            if proc.poll() is None:
                try:
                    proc.stdin.write(b"(exit)\n")
                    proc.stdin.flush()
                except Exception:
                    pass
                proc.terminate()
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck solver
                    proc.kill()
                    proc.wait()
            else:
                proc.wait()
        finally:
            for stream in (proc.stdin, proc.stdout):
                try:
                    stream.close()
                except Exception:  # pragma: no cover - cleanup best effort
                    pass

    def _io_deadline(self) -> float:
        deadline = time.monotonic() + self._timeout
        if self._deadline is not None:
            deadline = min(deadline, self._deadline)
        return deadline

    def _write(self, lines: Sequence[str]) -> None:
        if self._proc is None or self._proc.stdin is None:
            raise _PipeClosed()
        data = ("\n".join(lines) + "\n").encode("utf-8")
        try:
            self._proc.stdin.write(data)
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise _PipeClosed() from exc

    def _sync(self, deadline: float) -> List[str]:
        """Emit an echo marker and collect every output line before it."""
        self._marker += 1
        marker = f"repro-sync-{self._marker}"
        self._write([f'(echo "{marker}")'])
        lines: List[str] = []
        while True:
            line = self._read_line(deadline)
            if line.strip('"') == marker:
                return lines
            if line:
                lines.append(line)

    def _read_line(self, deadline: float) -> str:
        if self._proc is None or self._proc.stdout is None:
            raise _PipeClosed()
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _PipeTimeout()
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise _PipeClosed()
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8", "replace").strip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SmtLibPipeBackend({' '.join(self._command)!r}, "
            f"checks={self._checks}, recycles={self._recycles})"
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

BackendFactory = Callable[..., "SolverBackend"]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory, replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    The factory is called with the keyword arguments given to
    :func:`create_backend` (``max_iterations`` and the in-tree DPLL(T)
    backend's tuning knobs ``reduce_db``, ``reduce_base``, ``theory_bump``
    and ``idl_propagation``; other backends accept and ignore them).
    """
    if name in _REGISTRY and not replace:
        raise SolverError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)


def create_backend(
    spec: Union[str, "SolverBackend", None] = None, **kwargs
) -> "SolverBackend":
    """Resolve ``spec`` into a live backend instance.

    ``spec`` may be a registry name (``"dpllt"``, ``"smtlib-pipe"``, ...), a
    :class:`BackendSpec`, an already-constructed backend (returned as-is,
    ``kwargs`` ignored), or ``None`` for the default DPLL(T) backend.
    """
    if spec is None:
        spec = DpllTBackend.name
    if isinstance(spec, BackendSpec):
        merged = dict(spec.kwargs)
        merged.update(kwargs)
        spec, kwargs = spec.name, merged
    if isinstance(spec, str):
        factory = _REGISTRY.get(spec)
        if factory is None:
            raise UnknownBackendError(
                f"unknown solver backend {spec!r}; available: "
                + ", ".join(available_backends())
            )
        return factory(**kwargs)
    required = ("add", "push", "pop", "check", "model")
    if all(hasattr(spec, attr) for attr in required):
        return spec
    raise UnknownBackendError(
        f"{spec!r} is neither a backend name nor a SolverBackend instance"
    )


register_backend(DpllTBackend.name, DpllTBackend)
register_backend(SmtLibPipeBackend.name, SmtLibPipeBackend)
