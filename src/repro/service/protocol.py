"""Wire protocol of the verification service: newline-delimited JSON-RPC.

One request or response per line, UTF-8 JSON, ``\\n``-terminated — the
simplest framing that telnet, ``nc`` and a five-line client can speak.  The
envelope follows JSON-RPC 2.0: requests carry ``{"jsonrpc": "2.0", "id",
"method", "params"}``, responses either ``{"id", "result"}`` or ``{"id",
"error": {"code", "message"}}`` with the standard error codes.

Verification answers cross the wire as plain-JSON payloads
(:func:`result_to_payload` / :func:`payload_to_result`): the verdict, the
UNKNOWN reason, timings, solver statistics and the witness matching in the
query trace's own send/receive identifiers.  Encodings, traces and solver
state never travel — the service's whole point is that they stay warm on
the server.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro import faults
from repro.encoding.witness import Witness
from repro.utils.errors import ServiceProtocolError
from repro.verification.result import Verdict, VerificationResult

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_BATCH_QUERIES",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "WORKER_CRASH",
    "encode_frame",
    "decode_frame",
    "validate_request",
    "make_request",
    "make_response",
    "make_error",
    "result_to_payload",
    "payload_to_result",
]

#: Ceiling on one frame's size.  A verify request is a workload spec (tens
#: of bytes); anything near this bound is a confused or malicious peer.
MAX_FRAME_BYTES = 1 << 20

#: Ceiling on one ``verify_batch`` call's query list.  A result payload is
#: about 1 KB, so a full batch's reply stays well inside one frame.
MAX_BATCH_QUERIES = 256

# JSON-RPC 2.0 standard error codes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

#: Implementation-defined code: the request's worker process died twice
#: (once plus one re-dispatch).  Queries are idempotent, so clients may
#: safely resend — the pool's poison ledger converts a spec that keeps
#: crashing into an UNKNOWN answer instead of an endless retry loop.
WORKER_CRASH = -32001


def encode_frame(message: Dict[str, object]) -> bytes:
    """Render one protocol message as a newline-terminated JSON frame."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ServiceProtocolError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    if faults.ACTIVE is not None:
        data = faults.fire("protocol.encode", data=data, crash=ServiceProtocolError)
    return data


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one received line into a message dict, validating the envelope."""
    if faults.ACTIVE is not None:
        # A garbled frame decodes to junk and is *rejected* below — wire
        # corruption surfaces as ServiceProtocolError (and a client retry),
        # never as a different valid message.
        line = faults.fire("protocol.decode", data=line, crash=ServiceProtocolError)
    if len(line) > MAX_FRAME_BYTES:
        raise ServiceProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def validate_request(message: Dict[str, object]) -> Tuple[object, str, Dict[str, object]]:
    """Check a decoded frame is a well-formed request; returns (id, method, params)."""
    if message.get("jsonrpc") != "2.0":
        raise ServiceProtocolError('request is missing "jsonrpc": "2.0"')
    method = message.get("method")
    if not isinstance(method, str) or not method:
        raise ServiceProtocolError("request needs a non-empty string method")
    params = message.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ServiceProtocolError("request params must be an object")
    return message.get("id"), method, params


def make_request(
    method: str, params: Optional[Dict[str, object]] = None, request_id: object = None
) -> Dict[str, object]:
    message: Dict[str, object] = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params:
        message["params"] = params
    return message


def make_response(request_id: object, result: object) -> Dict[str, object]:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


def make_error(
    request_id: object, code: int, message: str, data: object = None
) -> Dict[str, object]:
    error: Dict[str, object] = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": "2.0", "id": request_id, "error": error}


# ---------------------------------------------------------------------------
# Result payloads
# ---------------------------------------------------------------------------


def _witness_to_payload(witness: Witness) -> Dict[str, object]:
    return {
        "matching": [
            [recv_id, send_id] for recv_id, send_id in sorted(witness.matching.items())
        ],
        "receive_values": [
            [recv_id, value]
            for recv_id, value in sorted(witness.receive_values.items())
        ],
        "unmatched_receives": sorted(witness.unmatched_receives),
        "orphan_sends": sorted(witness.orphan_sends),
    }


def _witness_from_payload(payload: Dict[str, object]) -> Witness:
    return Witness(
        matching={
            int(recv): int(send) for recv, send in payload.get("matching", [])
        },
        receive_values={
            int(recv): value for recv, value in payload.get("receive_values", [])
        },
        unmatched_receives=[int(r) for r in payload.get("unmatched_receives", [])],
        orphan_sends=[int(s) for s in payload.get("orphan_sends", [])],
    )


def result_to_payload(result: VerificationResult) -> Dict[str, object]:
    """Flatten a result for the wire (encodings and traces stay behind)."""
    statistics = {
        key: value
        for key, value in (result.solver_statistics or {}).items()
        if isinstance(value, (int, float, str, bool))
    }
    return {
        "verdict": result.verdict.value,
        "unknown_reason": result.unknown_reason,
        "from_cache": result.from_cache,
        "backend": result.backend,
        "encode_seconds": result.encode_seconds,
        "solve_seconds": result.solve_seconds,
        "solver_statistics": statistics,
        "witness": (
            _witness_to_payload(result.witness) if result.witness is not None else None
        ),
    }


def payload_to_result(payload: Dict[str, object]) -> VerificationResult:
    """Rebuild a client-side :class:`VerificationResult` from a payload."""
    witness_payload = payload.get("witness")
    return VerificationResult(
        verdict=Verdict(payload["verdict"]),
        witness=(
            _witness_from_payload(witness_payload)
            if witness_payload is not None
            else None
        ),
        solver_statistics=dict(payload.get("solver_statistics") or {}),
        encode_seconds=float(payload.get("encode_seconds") or 0.0),
        solve_seconds=float(payload.get("solve_seconds") or 0.0),
        backend=payload.get("backend"),
        from_cache=bool(payload.get("from_cache", False)),
        unknown_reason=payload.get("unknown_reason"),
    )
