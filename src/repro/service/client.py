"""Synchronous client for the verification daemon.

:class:`ServiceClient` speaks the newline-delimited JSON-RPC protocol over
one TCP connection and hands back the same
:class:`~repro.verification.result.VerificationResult` objects the local
API produces (minus encodings/traces, which never leave the server)::

    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1:9177") as client:
        result = client.verify("racy_fanin", params={"senders": 3})
        print(result.verdict, client.stats()["pool"]["hits"])

The CLI's ``--server ADDR`` flag is a thin wrapper over this class.

**Resilience.**  Verification queries are pure and idempotent, so the
client retries them: a transport failure (connection lost, garbled or
truncated response frame, a server ``PARSE_ERROR`` for a request mangled
on the wire) triggers reconnect + resend under capped exponential backoff
with jitter, up to ``retries`` times.  Only the idempotent methods are in
the budget (:data:`RETRYABLE_METHODS`); ``shutdown`` is never retried.
Server-side *semantic* errors (unknown workload, invalid params, internal
errors) are never retried either — they would fail identically again.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.service import protocol
from repro.utils.errors import ServiceError, ServiceProtocolError
from repro.verification.result import VerificationResult

__all__ = ["ServiceClient", "parse_address", "DEFAULT_PORT", "RETRYABLE_METHODS"]

#: Default TCP port of ``mcapi-verify serve``.
DEFAULT_PORT = 9177

#: Methods safe to resend after a transport failure.  Verification is
#: pure, so a repeated verify can at worst warm a pool entry twice;
#: ``shutdown`` must never fire twice and stays out.
RETRYABLE_METHODS = ("verify", "verify_batch")


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``host:port`` / ``:port`` / ``host`` / ``port`` into a pair."""
    address = address.strip()
    if not address:
        raise ServiceError("empty server address")
    if ":" in address:
        host, _, port_text = address.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise ServiceError(f"bad port in server address {address!r}")
        return host, port
    if address.isdigit():
        return "127.0.0.1", int(address)
    return address, DEFAULT_PORT


def _retryable(exc: Exception) -> Exception:
    """Tag ``exc`` as safe to retry (transport-level, not semantic)."""
    exc.retryable = True  # type: ignore[attr-defined]
    return exc


class ServiceClient:
    """One blocking connection to a running verification daemon.

    ``retries`` bounds how many times an idempotent call is *resent* after
    a transport failure (so a call makes at most ``retries + 1`` attempts);
    each retry reconnects and sleeps ``backoff_s * 2**attempt`` seconds
    (capped at ``backoff_cap_s``, with up to 50% random jitter shaved off
    to decorrelate a thundering herd of recovering clients).
    """

    def __init__(
        self,
        address: str = f"127.0.0.1:{DEFAULT_PORT}",
        timeout: float = 300.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ) -> None:
        host, port = parse_address(address)
        self.address = f"{host}:{port}"
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.reconnects = 0
        self.retried_calls = 0
        self._rng = random.Random()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0
        self._connect()

    # -- plumbing ----------------------------------------------------------------

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        except OSError as exc:
            error = ServiceError(
                f"cannot reach verification service at {self.address}: {exc}; "
                "is `mcapi-verify serve` running?"
            )
            # The CLI maps connection establishment to EX_UNAVAILABLE; a
            # reconnect attempt mid-retry-budget may find a restarting
            # daemon, so the failure is also retryable.
            error.unavailable = True  # type: ignore[attr-defined]
            raise _retryable(error) from exc
        self._file = self._sock.makefile("rwb")

    def _drop_connection(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _backoff(self, attempt: int) -> None:
        delay = min(self.backoff_s * (2 ** (attempt - 1)), self.backoff_cap_s)
        time.sleep(delay * (1.0 - 0.5 * self._rng.random()))

    def _call(self, method: str, params: Optional[Dict[str, object]] = None) -> object:
        budget = self.retries if method in RETRYABLE_METHODS else 0
        for attempt in range(budget + 1):
            if attempt:
                self.retried_calls += 1
                self._backoff(attempt)
                self._drop_connection()
            try:
                if self._file is None:
                    self._connect()
                    self.reconnects += 1
                return self._call_once(method, params)
            except (ServiceError, ServiceProtocolError) as exc:
                if attempt >= budget or not getattr(exc, "retryable", False):
                    raise
        raise ServiceError("unreachable")  # pragma: no cover

    def _call_once(
        self, method: str, params: Optional[Dict[str, object]]
    ) -> object:
        self._next_id += 1
        request_id = self._next_id
        frame = protocol.encode_frame(
            protocol.make_request(method, params, request_id)
        )
        try:
            self._file.write(frame)
            self._file.flush()
            line = self._file.readline(protocol.MAX_FRAME_BYTES + 1)
        except OSError as exc:
            raise _retryable(
                ServiceError(
                    f"lost connection to verification service at "
                    f"{self.address}: {exc}"
                )
            ) from exc
        if not line:
            raise _retryable(
                ServiceError(
                    f"verification service at {self.address} closed the connection"
                )
            )
        if len(line) > protocol.MAX_FRAME_BYTES:
            raise _retryable(
                ServiceProtocolError(
                    f"response frame exceeds the {protocol.MAX_FRAME_BYTES}-byte "
                    "limit"
                )
            )
        if not line.endswith(b"\n"):
            # readline returned without a terminator: the peer died
            # mid-frame.  Surface it, never hand the fragment to json.
            raise _retryable(
                ServiceProtocolError(
                    f"connection to {self.address} dropped mid-frame "
                    f"({len(line)} bytes, no terminator)"
                )
            )
        try:
            response = protocol.decode_frame(line)
        except ServiceProtocolError as exc:
            raise _retryable(exc)  # garbled on the wire; a fresh send may land
        error = response.get("error")
        if error is not None:
            code = error.get("code") if isinstance(error, dict) else None
            message = (
                error.get("message") if isinstance(error, dict) else str(error)
            )
            exc = ServiceError(f"service error {code}: {message}")
            if code in (protocol.PARSE_ERROR, protocol.WORKER_CRASH):
                # PARSE_ERROR: the *request* arrived garbled — wire
                # corruption, not a semantic rejection.  WORKER_CRASH: the
                # server-side worker died (already respawned).  Both are
                # safe and useful to resend.
                _retryable(exc)
            raise exc
        if response.get("id") != request_id:
            raise _retryable(
                ServiceProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
            )
        return response.get("result")

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API --------------------------------------------------------------

    @staticmethod
    def _spec(
        workload: str,
        params: Optional[Dict[str, object]],
        seed: int,
        mode: str,
        backend: Optional[str],
        timeout_s: Optional[float],
        **extra,
    ) -> Dict[str, object]:
        spec: Dict[str, object] = {"workload": workload, "seed": seed, "mode": mode}
        if params:
            spec["params"] = params
        if backend is not None:
            spec["backend"] = backend
        if timeout_s is not None:
            spec["timeout_s"] = timeout_s
        spec.update({key: value for key, value in extra.items() if value is not None})
        return spec

    def verify(
        self,
        workload: str,
        params: Optional[Dict[str, object]] = None,
        seed: int = 0,
        mode: str = "safety",
        backend: Optional[str] = None,
        timeout_s: Optional[float] = None,
        **extra,
    ) -> VerificationResult:
        """Verify one workload spec on the daemon's warm pool."""
        payload = self._call(
            "verify",
            self._spec(
                workload, params, seed, mode, backend, timeout_s, **extra
            ),
        )
        return protocol.payload_to_result(payload["result"])

    def verify_batch(
        self, queries: List[Dict[str, object]], **shared
    ) -> List[VerificationResult]:
        """Verify many specs in one round trip; results in input order.

        ``shared`` keys (``mode``, ``backend``, ``timeout_s``, ...) apply to
        every query that does not override them itself.
        """
        payload = self._call("verify_batch", dict(shared, queries=queries))
        return [
            protocol.payload_to_result(item["result"])
            for item in payload["results"]
        ]

    def enumerate(
        self,
        workload: str,
        params: Optional[Dict[str, object]] = None,
        seed: int = 0,
        limit: Optional[int] = None,
        backend: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> List[Dict[int, int]]:
        """All admissible send/receive matchings of the workload's trace."""
        payload = self._call(
            "enumerate",
            self._spec(
                workload,
                params,
                seed,
                "safety",
                backend,
                timeout_s,
                limit=limit,
            ),
        )
        return [
            {int(recv): int(send) for recv, send in matching}
            for matching in payload["matchings"]
        ]

    def stats(self) -> Dict[str, object]:
        """Daemon statistics: pool hits/ages, cache counters, timeouts."""
        return self._call("stats")

    def shutdown(self) -> Dict[str, object]:
        """Ask the daemon to stop accepting requests and exit."""
        return self._call("shutdown")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceClient({self.address!r})"
