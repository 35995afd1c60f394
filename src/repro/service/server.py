"""The verification daemon: an asyncio front end over the worker pool.

One :class:`VerificationService` owns a
:class:`~repro.service.pool.WorkerPool` and dispatches the five protocol
methods — ``verify``, ``verify_batch``, ``enumerate``, ``stats``,
``shutdown`` — that arrive as newline-delimited JSON-RPC frames
(:mod:`repro.service.protocol`).  The event loop never solves anything:
every request is handed to the pool on an executor thread, so a hundred
clients can be connected while four workers grind through the queue, and a
request that blows its deadline costs one worker process, not the daemon.

Three entry points:

* :meth:`VerificationService.handle_json` — request dict in, response dict
  out; what the tests drive directly.
* :func:`serve` / :func:`run_server` — the TCP daemon
  (``mcapi-verify serve``).
* :func:`run_stdio` — the same dispatch over stdin/stdout, one frame per
  line; lets a parent process drive a daemon without a port.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Dict, List, Optional, TextIO

from repro import __version__
from repro.service import protocol
from repro.service.pool import DEFAULT_POOL_SIZE, WorkerPool, _WorkerDied
from repro.utils.errors import ReproError, ServiceError, ServiceProtocolError

__all__ = ["VerificationService", "serve", "run_server", "run_stdio"]

#: Methods a client may invoke, and their service handlers.
SERVICE_METHODS = ("verify", "verify_batch", "enumerate", "stats", "shutdown")


class VerificationService:
    """Protocol-level dispatch over one worker pool and shared cache."""

    def __init__(
        self,
        jobs: int = 0,
        pool_size: int = DEFAULT_POOL_SIZE,
        cache_dir: Optional[str] = None,
        default_timeout_s: Optional[float] = None,
    ) -> None:
        self.pool = WorkerPool(jobs=jobs, pool_size=pool_size, cache_dir=cache_dir)
        self.default_timeout_s = default_timeout_s
        self.requests = 0
        self.errors = 0
        self.shutdown_requested = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._connection_tasks: set = set()

    # -- dispatch ----------------------------------------------------------------

    def handle_json(self, message: Dict[str, object]) -> Dict[str, object]:
        """Dispatch one decoded request frame; returns the response frame.

        Never raises: every failure mode maps to a JSON-RPC error response.
        Blocking (solves run on the caller's thread) — the async front end
        calls this via an executor.
        """
        try:
            request_id, method, params = protocol.validate_request(message)
        except ServiceProtocolError as exc:
            self.errors += 1
            return protocol.make_error(
                message.get("id") if isinstance(message, dict) else None,
                protocol.INVALID_REQUEST,
                str(exc),
            )
        self.requests += 1
        try:
            if method == "verify":
                return protocol.make_response(request_id, self._verify(params))
            if method == "verify_batch":
                return protocol.make_response(request_id, self._verify_batch(params))
            if method == "enumerate":
                return protocol.make_response(request_id, self._enumerate(params))
            if method == "stats":
                return protocol.make_response(request_id, self._stats())
            if method == "shutdown":
                # Only the flag here: handle_json runs on an executor thread,
                # and the asyncio event must be set from the loop thread
                # (handle_connection does, once the response is flushed).
                self.shutdown_requested = True
                return protocol.make_response(request_id, {"stopping": True})
            self.errors += 1
            return protocol.make_error(
                request_id,
                protocol.METHOD_NOT_FOUND,
                f"unknown method {method!r}; available: {', '.join(SERVICE_METHODS)}",
            )
        except _WorkerDied as exc:
            # Dedicated code so clients know a resend is safe: the query
            # did not fail, its worker did (twice — once plus a
            # re-dispatch), and the pool has already respawned it.
            self.errors += 1
            return protocol.make_error(request_id, protocol.WORKER_CRASH, str(exc))
        except ServiceError as exc:
            self.errors += 1
            return protocol.make_error(request_id, protocol.INVALID_PARAMS, str(exc))
        except ReproError as exc:
            self.errors += 1
            return protocol.make_error(
                request_id, protocol.INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"
            )
        except Exception as exc:  # a bug must not kill the connection loop
            self.errors += 1
            return protocol.make_error(
                request_id, protocol.INTERNAL_ERROR, f"internal error: {exc!r}"
            )

    def _request_timeout(self, params: Dict[str, object]) -> Optional[float]:
        timeout_s = params.get("timeout_s", self.default_timeout_s)
        return None if timeout_s is None else float(timeout_s)

    def _unwrap(self, response: Dict[str, object]) -> Dict[str, object]:
        if not response.get("ok"):
            kind = response.get("kind", "ServiceError")
            message = response.get("error", "request failed")
            if kind in ("ServiceError", "EncodingError", "UnknownBackendError"):
                raise ServiceError(f"{kind}: {message}")
            raise ReproError(f"{kind}: {message}")
        response.pop("ok", None)
        return response

    def _verify(self, params: Dict[str, object]) -> Dict[str, object]:
        return self._unwrap(
            self.pool.submit(
                dict(params, op="verify"), timeout_s=self._request_timeout(params)
            )
        )

    def _verify_batch(self, params: Dict[str, object]) -> Dict[str, object]:
        queries = params.get("queries")
        if not isinstance(queries, list) or not queries:
            raise ServiceError("verify_batch needs a non-empty 'queries' list")
        if len(queries) > protocol.MAX_BATCH_QUERIES:
            raise ServiceError(
                f"verify_batch takes at most {protocol.MAX_BATCH_QUERIES} "
                f"queries, got {len(queries)}; split the batch"
            )
        shared = {
            key: value for key, value in params.items() if key != "queries"
        }
        results: List[Dict[str, object]] = []
        for query in queries:
            if not isinstance(query, dict):
                raise ServiceError("each batch query must be an object")
            merged = dict(shared, **query)
            results.append(self._verify(merged))
        return {"results": results}

    def _enumerate(self, params: Dict[str, object]) -> Dict[str, object]:
        return self._unwrap(
            self.pool.submit(
                dict(params, op="enumerate"),
                timeout_s=self._request_timeout(params),
            )
        )

    def _stats(self) -> Dict[str, object]:
        stats = self.pool.statistics()
        stats["requests"] = self.requests
        stats["protocol_errors"] = self.errors
        stats["version"] = __version__
        return stats

    def encode_reply(self, response: Dict[str, object]) -> bytes:
        """Frame one reply for the wire.

        A reply over the frame limit becomes an ``INVALID_PARAMS`` error
        that keeps the request id: clients do not retry it, and the
        connection keeps serving instead of closing mid-stream.
        """
        try:
            return protocol.encode_frame(response)
        except ServiceProtocolError as exc:
            self.errors += 1
            return protocol.encode_frame(
                protocol.make_error(
                    response.get("id"),
                    protocol.INVALID_PARAMS,
                    f"reply too large: {exc}; split the request",
                )
            )

    def close(self) -> None:
        self.pool.close()

    # -- async front end ---------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_event_loop()
        task = asyncio.current_task()
        if task is not None:
            # Tracked so serve_forever can drain in-flight connections
            # instead of letting loop teardown cancel them mid-close.
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Frame beyond the stream limit: reject and drop the peer
                    # (the rest of the oversized frame cannot be resynced).
                    writer.write(
                        protocol.encode_frame(
                            protocol.make_error(
                                None,
                                protocol.INVALID_REQUEST,
                                f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode_frame(line)
                except ServiceProtocolError as exc:
                    self.errors += 1
                    response = protocol.make_error(
                        None, protocol.PARSE_ERROR, str(exc)
                    )
                else:
                    response = await loop.run_in_executor(
                        None, self.handle_json, message
                    )
                writer.write(self.encode_reply(response))
                await writer.drain()
                if self.shutdown_requested:
                    break
        except ConnectionResetError:  # pragma: no cover - client vanished
            pass
        except asyncio.CancelledError:
            # serve_forever cancels lingering connections at shutdown; end
            # the task normally so stream teardown stays quiet.
            pass
        finally:
            if self.shutdown_requested and self._shutdown_event is not None:
                # Signalled here — on the loop thread, after the requester's
                # response frame has been flushed — never from handle_json.
                self._shutdown_event.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, OSError):
                pass

    async def serve_forever(self, host: str, port: int) -> None:
        """Run the TCP front end until a ``shutdown`` request arrives."""
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self.handle_connection,
            host=host,
            port=port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        bound = ", ".join(
            f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
            for sock in server.sockets or []
        )
        print(f"mcapi-verify service listening on {bound}", flush=True)
        try:
            await self._shutdown_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            pending = [
                task
                for task in self._connection_tasks
                if task is not asyncio.current_task()
            ]
            # Cancel rather than drain: a peer idling in readline() would
            # otherwise hold shutdown hostage (a forked worker can even pin
            # the connection open by inheriting a duplicate of its fd).
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self.close()


async def serve(
    host: str = "127.0.0.1",
    port: int = 9177,
    jobs: int = 0,
    pool_size: int = DEFAULT_POOL_SIZE,
    cache_dir: Optional[str] = None,
    default_timeout_s: Optional[float] = None,
) -> None:
    """Create a service and run its TCP front end until shutdown."""
    service = VerificationService(
        jobs=jobs,
        pool_size=pool_size,
        cache_dir=cache_dir,
        default_timeout_s=default_timeout_s,
    )
    await service.serve_forever(host, port)


def run_server(
    host: str = "127.0.0.1",
    port: int = 9177,
    jobs: int = 0,
    pool_size: int = DEFAULT_POOL_SIZE,
    cache_dir: Optional[str] = None,
    default_timeout_s: Optional[float] = None,
) -> int:
    """Blocking entry point for ``mcapi-verify serve``."""
    try:
        asyncio.run(
            serve(
                host=host,
                port=port,
                jobs=jobs,
                pool_size=pool_size,
                cache_dir=cache_dir,
                default_timeout_s=default_timeout_s,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def run_stdio(
    jobs: int = 0,
    pool_size: int = DEFAULT_POOL_SIZE,
    cache_dir: Optional[str] = None,
    default_timeout_s: Optional[float] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Serve frames over stdin/stdout — the portless mode tests drive."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    service = VerificationService(
        jobs=jobs,
        pool_size=pool_size,
        cache_dir=cache_dir,
        default_timeout_s=default_timeout_s,
    )
    try:
        for line in stdin:
            if not line.strip():
                continue
            try:
                message = protocol.decode_frame(line.encode("utf-8"))
            except ServiceProtocolError as exc:
                response = protocol.make_error(None, protocol.PARSE_ERROR, str(exc))
            else:
                response = service.handle_json(message)
            stdout.write(service.encode_reply(response).decode("utf-8"))
            stdout.flush()
            if service.shutdown_requested:
                break
    finally:
        service.close()
    return 0
