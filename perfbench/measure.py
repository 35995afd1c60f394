"""Small measurement helpers: percentiles, the tail rule, memory, the host
speed probe, outcomes."""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Percentiles the tail metric may use, highest last.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int, preferred: float) -> float:
    """The tail percentile: ``preferred`` if at least ten samples lie beyond
    it, else the highest ladder percentile that has ten beyond it.

    Each workload fixes ``preferred`` from its minimum sample count, so
    the percentile (and with it the metric's meaning) does not change from
    run to run.
    """
    if samples * (1.0 - preferred / 100.0) >= 10:
        return preferred
    for pct in reversed(TAIL_LADDER):
        if samples * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (scans ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; ppid follows the closing paren.
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            children.append(int(entry))
    return children


#: The reference speed: the host speed at which :func:`_reference_loop`
#: takes this long.  Priced times are what the work would take there.
REFERENCE_NS = 20_000


def _reference_loop() -> int:
    """A fixed piece of interpreter work, 18–31 µs on a 2-core VM."""
    total = 0
    for i in range(300):
        total += i * 3 % 7
    return total


def reference_speed_ns(seconds: float = 0.1) -> float:
    """Median time of :func:`_reference_loop` over ``seconds`` of repeats."""
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        began = time.perf_counter_ns()
        _reference_loop()
        samples.append(time.perf_counter_ns() - began)
    return statistics.median(samples)


def priced_s(elapsed_s: float, before_ns: float, after_ns: float) -> float:
    """``elapsed_s`` at the reference speed, given the host speed (from
    :func:`reference_speed_ns`) just before and just after the work.  For
    work in other processes, where :class:`SpeedProbe` cannot sample."""
    return elapsed_s * REFERENCE_NS / ((before_ns + after_ns) / 2)


class SpeedProbe:
    """Samples the speed of the core the measuring thread runs on.

    The 2-core host this benchmark was built on runs the same code up to
    1.5x slower from one pass to the next, and 36% slower over one
    twenty-minute window than the next.  Thread CPU time slows by the same
    factor (it is not time stolen by the scheduler), so neither CPU time nor
    longer runs remove it.  While the probe runs, an interval timer
    interrupts the measuring thread every :data:`INTERVAL_S` and times
    :func:`_reference_loop` there.  A request's latency is then priced at
    the reference speed: ``elapsed × REFERENCE_NS ÷ median sample taken
    during the request``.  The samples' own time is taken out of the
    request they interrupted.
    """

    INTERVAL_S = 0.002

    def __init__(self) -> None:
        self.samples: List[int] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter_ns()
        _reference_loop()
        self.samples.append(time.perf_counter_ns() - began)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def priced_ms(self, elapsed_ms: float, first: int, last: int) -> float:
        """``elapsed_ms`` of a request that ran between marks ``first`` and
        ``last``, at the reference speed.  A request shorter than the
        interval is priced by the samples just before and after it."""
        inside = self.samples[first:last]
        nearby = self.samples[max(first - 1, 0) : last + 1] or self.samples
        own_ms = elapsed_ms - sum(inside) / 1e6
        return own_ms * REFERENCE_NS / statistics.median(inside or nearby)


@dataclass
class Outcome:
    """What the passes of one run produced.

    A run repeats one fixed list of requests (a *pass*); ``latencies[i]``
    holds request ``i``'s latency in every pass, and :meth:`request_ms`
    reduces them to one figure per request with ``reduce``:

    * ``statistics.median`` for times a :class:`SpeedProbe` has priced at
      the reference speed (every ``--trace 0`` run).  Most of the host's
      drift is gone from those, and the median ignores what is left.
    * ``min`` for raw wall times (the traced run and the untraced runs it
      is compared with).  Host slowdowns only add time, so the fastest
      repetition is the steadier raw estimate.
    """

    latencies: List[List[float]]
    #: Per request: did it miss every warm state (service: the pool)?
    cold: List[bool]
    reduce: Callable[[List[float]], float] = min
    passes: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    unknown: int = 0
    #: Wrong answers and failed requests, one line each.
    wrong: List[str] = field(default_factory=list)
    models: int = 0
    #: ``kernel_faults`` summed over the answers' solver statistics: each
    #: is a fall-back from the native SAT kernel to pure-Python propagation.
    kernel_faults: int = 0
    #: Counts that must repeat exactly: name -> tuple of counts.
    counts: Dict[str, Tuple] = field(default_factory=dict)
    drift: List[str] = field(default_factory=list)

    @classmethod
    def for_requests(cls, cold: List[bool], reduce=min) -> "Outcome":
        return cls(latencies=[[] for _ in cold], cold=list(cold), reduce=reduce)

    def observe(self, slot: int, elapsed_ms: float) -> None:
        self.latencies[slot].append(elapsed_ms)

    def request_ms(self) -> List[float]:
        """One latency per request; ``inf`` for a request never answered."""
        return [self.reduce(values) if values else float("inf") for values in self.latencies]

    def record_counts(self, name: str, counts: Tuple) -> None:
        seen = self.counts.setdefault(name, counts)
        if seen != counts and name not in self.drift:
            self.drift.append(f"{name}: {seen} -> {counts}")

    @property
    def errors(self) -> int:
        return self.unknown + len(self.wrong)


def end_to_end(
    outcome: Outcome, preferred_tail: float, setup_s: float, peak_rss_mb: float
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The gated end-to-end metrics of a run, and lines for the ungated ones.

    Every figure comes from the per-request latencies of
    :meth:`Outcome.request_ms`: throughput is requests per second of one
    pass at those latencies (closed loop, so the pass time is their sum).
    The tail latency and models per second are printed but not gated;
    ``perfbench/README.md`` says why.  Library queries are all cold, so
    there the cold-request median is the median.
    """
    answered = [
        (ms, cold) for ms, cold in zip(outcome.request_ms(), outcome.cold) if ms != float("inf")
    ]
    done = [ms for ms, _ in answered]
    cold = [ms for ms, is_cold in answered if is_cold]
    pass_s = sum(done) / 1000.0
    tail_pct = tail_percentile(len(done), preferred_tail)
    metrics = {
        "throughput_qps": (len(done) / pass_s, "1/s"),
        "latency_p50_ms": (percentile(done, 50.0), "ms"),
        "cold_latency_p50_ms": (percentile(cold, 50.0), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    ungated = [
        f"latency_tail_ms = {percentile(done, tail_pct):.6g} ms "
        f"(p{tail_pct:g} of {len(done)} requests, ungated)",
        f"cold requests: {len(cold)} of {len(done)}",
        f"models_per_s = {outcome.models / outcome.passes / pass_s:.6g} 1/s "
        "(witnesses or matchings per second of one pass, ungated)",
    ]
    return metrics, ungated
