"""The four benchmark workloads.

Library workloads (``arith_corpus``, ``pairing_enum``, ``deadlock_corpus``)
drive :class:`repro.VerificationSession` in this process: every query is a
cold session (record, encode, load, solve).  A run repeats whole *passes*
over a seeded query list until ``--seconds`` have elapsed, so every run
measures the same mix no matter where the clock stops.

``service_stream`` drives a real ``mcapi-verify serve`` daemon through one
:class:`repro.service.ServiceClient` connection in a closed loop: each
request waits for the previous reply.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import statistics
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from corpora import (
    SAFE,
    VIOLATION,
    Query,
    analytic_matchings,
    analytic_verdict,
    enumerate_query,
    stored_queries,
    verdict_query,
)
from measure import Outcome, SpeedProbe
from repro.program.ast import Program

# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


def arith_corpus_queries(expected) -> List[Query]:
    """The scatter/gather ladder plus every stored arithmetic program."""
    ladder = [
        Query(
            name=f"scatter_gather_{n}{'_order' if order else ''}",
            build=("scatter_gather", n, order),
            mode="safety",
            # The gather sum holds in every execution; "the first reply
            # came from worker 0" fails as soon as two workers race.
            expected=VIOLATION if order and n >= 2 else SAFE,
        )
        for n in (1, 2, 3)
        for order in (False, True)
    ]
    return ladder + stored_queries("arith", expected)


def deadlock_corpus_queries(expected) -> List[Query]:
    """Blocking families with analytic answers plus every stored random
    program, each asked the deadlock and the orphan question."""
    families = []
    for size in (2, 3, 4):
        families.append(
            Query(f"circular_wait_{size}", ("circular_wait", size, False), "deadlock", VIOLATION)
        )
        families.append(
            Query(f"circular_wait_{size}_kick", ("circular_wait", size, True), "deadlock", SAFE)
        )
        families.append(
            Query(f"starved_fanin_{size}", ("starved_fanin", size, 1), "deadlock", VIOLATION)
        )
    return families + stored_queries("deadlock", expected)


#: Enumerations per pass: ((family, *args), copies).  Matching counts are
#: analytic (n!): five 24-matching shapes six times each, three 120s and
#: one 720, so the tail percentile has 34 requests to rank.
PAIRING_PROGRAMS = [
    (("racy_fanin", 4, 1), 6),
    (("racy_fanin", 2, 2), 6),
    (("racy_fanin", 1, 4), 6),
    (("nonblocking_fanin", 4), 6),
    (("client_server", 4), 6),
    (("racy_fanin", 5, 1), 1),
    (("nonblocking_fanin", 5), 1),
    (("client_server", 5), 1),
    (("racy_fanin", 3, 2), 1),
]


def pairing_enum_queries(expected) -> List[Query]:
    return [
        Query(
            name="_".join(str(part) for part in build),
            build=build,
            mode="enumerate",
            expected=analytic_matchings(*build),
        )
        for build, copies in PAIRING_PROGRAMS
        for _ in range(copies)
    ]


class LibraryWorkload:
    """Whole passes over a seeded query list, one cold session per query."""

    def __init__(self, name: str, make_queries: Callable, preferred_tail: float) -> None:
        self.name = name
        self.make_queries = make_queries
        self.preferred_tail = preferred_tail

    def plan(self, expected, seed: int) -> List[Tuple[Query, Program, int]]:
        """The run's query list: (query, program, recording seed).

        The seed orders the pass.  Every query is recorded with schedule 0:
        an arithmetic query's cost depends on the recorded schedule by up to
        2x (scatter_gather(3) with assert_order took 0.94 s or 1.68 s), so
        seeded schedules would make runs of different seeds incomparable.
        Programs are built here, outside every timed region: building the
        input is the benchmark's work, not the verifier's.
        """
        plan = [(query, query.program(), 0) for query in self.make_queries(expected)]
        random.Random(f"{self.name}-{seed}").shuffle(plan)
        return plan

    @staticmethod
    def execute(
        query: Query, program: Program, recording_seed: int
    ) -> Tuple[object, Tuple, int, int]:
        """Run one query; returns (answer, counts that must repeat, models,
        native-kernel faults)."""
        if query.mode == "enumerate":
            matchings = enumerate_query(program, recording_seed)
            return len(matchings), (len(matchings),), len(matchings), 0
        result = verdict_query(program, query.mode, query.encoder_options(), recording_seed)
        stats = result.solver_statistics or {}
        counts = (stats.get("sat_conflicts", 0), stats.get("sat_decisions", 0))
        models = 1 if result.witness is not None else 0
        return result.verdict.value, counts, models, stats.get("kernel_faults", 0)

    def run_pass(
        self,
        plan: Sequence[Tuple[Query, Program, int]],
        outcome: Outcome,
        timings: List[Tuple[int, float, int, int]],
        request: Optional[Callable] = None,
        probe: Optional[SpeedProbe] = None,
    ) -> None:
        """Run every query of ``plan`` once, recording into ``outcome`` and
        appending (slot, elapsed ms, first and last probe mark) to
        ``timings``.

        ``request`` (the tracer's request scope) wraps each query when the
        pass is traced; the oracle check stays outside the timed region.
        """
        for slot, (query, program, recording_seed) in enumerate(plan):
            outcome.attempted += 1
            first = probe.mark() if probe else 0
            start = time.perf_counter()
            try:
                if request is None:
                    answer, counts, models, faults = self.execute(query, program, recording_seed)
                else:
                    with request(query.name):
                        answer, counts, models, faults = self.execute(
                            query, program, recording_seed
                        )
            except Exception as exc:  # a failed query is counted, not fatal
                outcome.wrong.append(f"{query.name}: {type(exc).__name__}: {exc}")
                continue
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            timings.append((slot, elapsed_ms, first, probe.mark() if probe else 0))
            outcome.models += models
            outcome.kernel_faults += faults
            if answer == "unknown":
                outcome.unknown += 1
            elif answer != query.expected:
                outcome.wrong.append(f"{query.name}: got {answer}, expected {query.expected}")
            outcome.record_counts(f"{query.name}@{recording_seed}", counts)

    def measure(
        self, plan, seconds: float, request=None, min_passes: int = 2, priced: bool = True
    ) -> Outcome:
        """Whole passes over ``plan``: at least ``min_passes``, then more
        while another pass (as long as the last one) still fits in
        ``seconds``.

        With ``priced``, a :class:`SpeedProbe` runs through the passes, each
        latency is priced at the reference host speed, and a query's
        figure is the median over passes.  Without it (the traced run and
        the untraced run it is compared with) latencies are raw wall times
        and a query's figure is its fastest.
        """
        outcome = Outcome.for_requests(
            [True] * len(plan), statistics.median if priced else min
        )
        probe = SpeedProbe() if priced else None
        timings: List[Tuple[int, float, int, int]] = []
        start = time.perf_counter()
        last = 0.0
        with probe or contextlib.nullcontext():
            while outcome.passes < min_passes or (
                time.perf_counter() - start + last <= seconds
            ):
                began = time.perf_counter()
                self.run_pass(plan, outcome, timings, request, probe)
                last = time.perf_counter() - began
                outcome.passes += 1
        outcome.wall_s = time.perf_counter() - start
        for slot, elapsed_ms, first, end in timings:
            outcome.observe(slot, probe.priced_ms(elapsed_ms, first, end) if probe else elapsed_ms)
        return outcome


#: Preferred tail percentiles follow each pass's query count (the tail is
#: taken over one value per query): 86, 34 and 129 queries.
LIBRARY_WORKLOADS = {
    "arith_corpus": LibraryWorkload("arith_corpus", arith_corpus_queries, preferred_tail=85.0),
    "pairing_enum": LibraryWorkload("pairing_enum", pairing_enum_queries, preferred_tail=70.0),
    "deadlock_corpus": LibraryWorkload(
        "deadlock_corpus", deadlock_corpus_queries, preferred_tail=90.0
    ),
}

# ---------------------------------------------------------------------------
# Service stream
# ---------------------------------------------------------------------------

#: The working set: (workload, params, modes).  Sizes stop where one cold
#: verdict would exceed ~150 ms on a 2-core host, so no single miss
#: dominates a run; every question has an analytic answer.
_ALL = ("safety", "deadlock", "orphan")
SERVICE_PROGRAMS: List[Tuple[str, Dict[str, object], Tuple[str, ...]]] = (
    [("figure1", {"property": prop}, _ALL) for prop in ("a-is-y", "a-is-x")]
    + [
        ("racy_fanin", {"senders": s, "messages": m}, _ALL)
        for s, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1))
    ]
    + [("racy_fanin", {"senders": 5, "messages": 1}, ("safety", "deadlock"))]
    + [("nonblocking_fanin", {"senders": s}, _ALL) for s in (2, 3, 4)]
    + [("nonblocking_fanin", {"senders": 5}, ("safety",))]
    + [("pipeline", {"senders": s}, _ALL) for s in range(2, 10)]
    + [("token_ring", {"senders": s}, _ALL) for s in range(2, 10)]
    + [("client_server", {"senders": s}, _ALL) for s in (1, 2, 3)]
    + [("client_server", {"senders": 4}, ("safety", "deadlock"))]
    + [("circular_wait", {"senders": s}, _ALL) for s in range(2, 7)]
    + [("starved_fanin", {"senders": s}, _ALL) for s in (1, 2, 3)]
    + [("starved_fanin", {"senders": 4}, ("safety", "deadlock"))]
)

#: The question every daemon answers first, during set-up.
SETUP_QUESTION = ("figure1", {"property": "a-is-y"}, "safety")

#: Zipf exponent of question popularity.
POPULARITY_SKEW = 0.9
#: Requests per service pass (about 4 s on a 2-core host).
PASS_REQUESTS = 1200


def service_questions() -> List[Tuple[str, Dict[str, object], str]]:
    return [
        (workload, params, mode)
        for workload, params, modes in SERVICE_PROGRAMS
        for mode in modes
    ]


def _program_size(question) -> int:
    workload, params, _ = question
    return int(params.get("senders", 3)) * int(params.get("messages", 1))


class ServiceStream:
    """A seeded, skewed, closed-loop request stream over the working set.

    Questions are sorted by mode, answer and program size and cut into
    groups of three neighbours.  The popularity order of the groups is
    fixed; the seed shuffles questions only within their group, and draws
    the request sequence.  So every seed asks the same mix of question
    kinds at each popularity rank: with free permutations, whichever
    question a seed made most popular (about 15% of requests) moved the
    mean latency and the violation rate by itself.
    """

    def __init__(self, seed: int, pool_size: int) -> None:
        self.rng = random.Random(f"service_stream-{seed}")
        questions = sorted(
            service_questions(),
            key=lambda q: (q[2], analytic_verdict(*q), _program_size(q), repr(q)),
        )
        groups = [questions[i : i + 3] for i in range(0, len(questions), 3)]
        random.Random("service_stream-popularity").shuffle(groups)
        ranked = []
        for group in groups:
            self.rng.shuffle(group)
            ranked.extend(group)
        self.questions = ranked
        weights = [1.0 / (rank + 1) ** POPULARITY_SKEW for rank in range(len(ranked))]
        total = sum(weights)
        self.cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self.cumulative.append(running)
        self.pool_size = pool_size
        self._lru: "OrderedDict[Tuple, None]" = OrderedDict()
        self.model_hits = 0
        self.model_misses = 0

    def take(self, count: int) -> List[Tuple[str, Dict[str, object], str, int, bool]]:
        """The next ``count`` (workload, params, mode, recording seed,
        predicted pool miss) requests."""
        requests = []
        for _ in range(count):
            index = bisect.bisect_left(self.cumulative, self.rng.random())
            workload, params, mode = self.questions[min(index, len(self.questions) - 1)]
            seed = self.rng.randrange(4)
            requests.append((workload, params, mode, seed, self._touch(workload, params)))
        return requests

    def observe(self, workload, params) -> None:
        """Tell the pool model about a request made outside the stream."""
        self._touch(workload, params)

    def _touch(self, workload, params) -> bool:
        """LRU model of the daemon's session pool: True on a predicted miss.

        A pool entry is one recorded trace (safety and orphan questions
        share it, deadlock questions open a sub-session inside it), so the
        key is the program, not the question.
        """
        key = (workload, tuple(sorted(params.items())))
        if key in self._lru:
            self._lru.move_to_end(key)
            self.model_hits += 1
            return False
        self.model_misses += 1
        self._lru[key] = None
        if len(self._lru) > self.pool_size:
            self._lru.popitem(last=False)
        return True


def question_name(workload, params, mode) -> str:
    args = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{workload}({args})/{mode}"


def check_service_answer(outcome: Outcome, workload, params, mode, result) -> None:
    """Score one service reply against its analytic answer."""
    verdict = result.verdict.value
    expected = analytic_verdict(workload, params, mode)
    if verdict == "unknown":
        outcome.unknown += 1
    elif verdict != expected:
        outcome.wrong.append(
            f"{question_name(workload, params, mode)}: got {verdict}, expected {expected}"
        )
    if verdict == VIOLATION:
        outcome.models += 1
    outcome.kernel_faults += (result.solver_statistics or {}).get("kernel_faults", 0)
