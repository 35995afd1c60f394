"""Query corpora of the benchmark and their answers.

Every workload draws its queries from here.  Two kinds of answer back them:

* **analytic** answers for the parameterised families, derived from how the
  family is built (see :func:`analytic_verdict` and
  :func:`analytic_matchings`);
* **explorer** answers for the seeded random programs, computed once by
  ``python3 perfbench/regen.py`` with the explicit-state and sleep-set (DPOR)
  explorers and stored in ``perfbench/expected.json``.

Neither kind is computed by the symbolic verifier, so a wrong verdict from
the verifier shows up as a wrong answer, never as a new expectation.

Random programs are addressed by ``(kind, index)``: program ``i`` of kind
``k`` is ``random_program(random.Random(f"{k}-{i}"), ...)``, so a run
rebuilds any stored program from its index alone.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.encoding import EncoderOptions
from repro.program.ast import Program
from repro.verification.session import VerificationSession, resolve_mode
from repro.workloads import (
    circular_wait,
    client_server,
    nonblocking_fanin,
    racy_fanin,
    random_program,
    scatter_gather,
    starved_fanin,
)

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: Random corpora are verified with the per-pair FIFO constraints, the
#: delivery model the explorers implement (as in the differential tests).
FIFO = EncoderOptions(enforce_pair_fifo=True)

#: Library queries that answer SAFE / VIOLATION, and pairing counts.
SAFE, VIOLATION = "safe", "violation"


@dataclass(frozen=True)
class Query:
    """One library question: a program, a mode and the answer it must get.

    ``expected`` is a verdict string for verdict queries and a matching
    count for enumerations.  ``options`` is ``"fifo"`` or ``"default"``.
    """

    name: str
    build: Tuple  # ("random", kind, index) or (family, *args)
    mode: str  # "safety" | "deadlock" | "orphan" | "enumerate"
    expected: object
    options: str = "default"

    def program(self) -> Program:
        return build_program(self.build)

    def encoder_options(self) -> Optional[EncoderOptions]:
        return FIFO if self.options == "fifo" else None


def random_corpus_program(kind: str, index: int) -> Program:
    """Program ``index`` of the seeded random corpus ``kind``."""
    rng = random.Random(f"{kind}-{index}")
    if kind == "arith":
        return random_program(rng, arith_heavy=True, name=f"arith-{index}")
    if kind == "deadlock":
        return random_program(rng, allow_deadlock=True, name=f"deadlock-{index}")
    raise ValueError(f"unknown random corpus {kind!r}")


_FAMILIES = {
    "scatter_gather": scatter_gather,
    "circular_wait": circular_wait,
    "starved_fanin": starved_fanin,
    "racy_fanin": racy_fanin,
    "nonblocking_fanin": nonblocking_fanin,
    "client_server": client_server,
}


def build_program(build: Tuple) -> Program:
    if build[0] == "random":
        return random_corpus_program(build[1], build[2])
    return _FAMILIES[build[0]](*build[1:])


def verdict_query(program: Program, mode: str, options, seed: int):
    """One cold library verdict, asked the way ``mcapi-verify`` asks it.

    The mode is resolved up front so the session encodes exactly once;
    recordings that block fall back to the static trace, as the service
    does.
    """
    resolved, properties = resolve_mode(mode, options, None)
    session = VerificationSession.from_program(
        program,
        seed=seed,
        options=resolved,
        properties=properties,
        on_deadlock="static",
    )
    return session.verdict()


def enumerate_query(program: Program, seed: int) -> List[Dict[int, int]]:
    """All admissible matchings of one cold session (the Figure 4 question)."""
    return VerificationSession.from_program(program, seed=seed).enumerate_pairings()


# ---------------------------------------------------------------------------
# Analytic answers
# ---------------------------------------------------------------------------


def analytic_matchings(family: str, *args) -> int:
    """Matchings of the racy families: every receive may take any message.

    ``racy_fanin(n, m)`` has ``n*m`` receives on one endpoint and no pair
    FIFO, so ``(n*m)!``; ``nonblocking_fanin(n)`` and ``client_server(n)``
    race ``n`` messages to one endpoint (the replies are directed), so ``n!``.
    """
    if family == "racy_fanin":
        senders, messages = args[0], args[1] if len(args) > 1 else 1
        return math.factorial(senders * messages)
    if family in ("nonblocking_fanin", "client_server"):
        return math.factorial(args[0])
    raise ValueError(f"no analytic matching count for {family!r}")


def analytic_verdict(workload: str, params: Dict[str, int], mode: str) -> str:
    """The verdict of a service question, from how its program is built.

    * safety: the racy first-message assertions (``racy_fanin``,
      ``nonblocking_fanin``) fail as soon as two messages race; Figure 1's
      ``A == Y`` fails in the paper's Figure 4b behaviour and ``A == X`` in
      Figure 4a; pipeline, token ring and client/server assertions hold in
      every execution.  Programs without assertions are SAFE.
    * deadlock: ``circular_wait`` and ``starved_fanin`` block in every
      schedule; everything else in the set completes.
    * orphan: every message in the set is received in every complete
      execution, and the two blocking families have no complete execution.
    """
    senders = int(params.get("senders", 3))
    messages = int(params.get("messages", 1))
    if mode == "deadlock":
        return VIOLATION if workload in ("circular_wait", "starved_fanin") else SAFE
    if mode == "orphan":
        return SAFE
    if workload == "racy_fanin":
        return VIOLATION if senders * messages >= 2 else SAFE
    if workload == "nonblocking_fanin":
        return VIOLATION if senders >= 2 else SAFE
    if workload == "figure1":
        return VIOLATION
    return SAFE


# ---------------------------------------------------------------------------
# Stored explorer answers
# ---------------------------------------------------------------------------


def load_expected() -> Dict[str, object]:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def stored_queries(kind: str, expected: Dict[str, object]) -> List[Query]:
    """The explorer-checked random queries of corpus ``kind``: one per
    stored program and mode."""
    queries: List[Query] = []
    for entry in expected[kind]["programs"]:
        for mode, verdict in sorted(entry["answers"].items()):
            queries.append(
                Query(
                    name=f"{kind}-{entry['index']}/{mode}",
                    build=("random", kind, entry["index"]),
                    mode=mode,
                    expected=verdict,
                    options="fifo",
                )
            )
    return queries
