"""Verification verdicts and results.

Produced by the session API (:mod:`repro.verification.session`), the
batch lanes built on it and the verification service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.encoding.encoder import EncodedProblem
from repro.encoding.witness import Witness
from repro.program.interpreter import ProgramRun
from repro.trace.trace import ExecutionTrace

__all__ = ["Verdict", "VerificationResult"]


class Verdict(Enum):
    """Outcome of a verification query."""

    #: No execution consistent with the trace's branch outcomes violates the
    #: properties.
    SAFE = "safe"
    #: Some execution violates a property; a witness is attached.
    VIOLATION = "violation"
    #: The solver gave up (iteration limit); no conclusion.
    UNKNOWN = "unknown"


@dataclass
class VerificationResult:
    """The verdict plus everything needed to understand and reproduce it.

    ``problem`` is ``None`` exactly when the result was answered from a
    :class:`~repro.verification.cache.ResultCache` (``from_cache=True``):
    a cache hit never builds an encoding, so there is none to attach.
    """

    verdict: Verdict
    problem: Optional[EncodedProblem] = None
    witness: Optional[Witness] = None
    solver_statistics: Dict[str, int] = field(default_factory=dict)
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    trace: Optional[ExecutionTrace] = None
    program_run: Optional[ProgramRun] = None
    backend: Optional[str] = None
    from_cache: bool = False
    #: Why the verdict is UNKNOWN, when it is: ``"timeout"`` for a missed
    #: wall-clock deadline, ``"iteration-limit"`` is left implicit (``None``).
    unknown_reason: Optional[str] = None

    @property
    def timed_out(self) -> bool:
        return self.verdict is Verdict.UNKNOWN and self.unknown_reason == "timeout"

    @property
    def is_violation(self) -> bool:
        return self.verdict is Verdict.VIOLATION

    @property
    def is_safe(self) -> bool:
        return self.verdict is Verdict.SAFE

    def describe(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]
        if self.unknown_reason is not None:
            lines.append(f"unknown reason: {self.unknown_reason}")
        if self.from_cache:
            lines.append("answered from cache (no encoding built)")
        if self.problem is not None:
            lines.append(f"problem size: {self.problem.size_summary()}")
            lines.append(
                f"encode time: {self.encode_seconds * 1000:.1f} ms, "
                f"solve time: {self.solve_seconds * 1000:.1f} ms"
            )
        if self.backend is not None:
            lines.append(f"backend: {self.backend}")
        if self.witness is not None:
            if self.problem is not None:
                lines.append(self.witness.describe(self.problem))
            elif self.witness.matching:
                pairs = ", ".join(
                    f"recv#{recv_id}<-send#{send_id}"
                    for recv_id, send_id in sorted(self.witness.matching.items())
                )
                lines.append(f"witness matching: {pairs}")
        return "\n".join(lines)
