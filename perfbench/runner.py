"""Measured phases of a run: library and service workloads, plain or traced."""

from __future__ import annotations

import glob
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from corpora import analytic_verdict, load_expected
from daemon import Daemon
from measure import (
    Outcome,
    SpeedProbe,
    end_to_end,
    percentile,
    priced_s,
    reference_speed_ns,
    self_peak_rss_mb,
)
from tracer import LAYERS, Tracer
from workloads import (
    LIBRARY_WORKLOADS,
    PASS_REQUESTS,
    SETUP_QUESTION,
    ServiceStream,
    check_service_answer,
    question_name,
)

#: Set-ups timed per library run (the median is reported); a service run
#: times one per pass and makes at least this many passes.
SETUP_REPS = 5

#: The per-layer metrics, in BENCHMARK.json order, with their units.  Times
#: are mean self time per query; ``.share`` is self time / request wall.
PER_LAYER: List[Tuple[str, str]] = [
    ("program.record_ms", "ms"),
    ("program.record_calls", "count/query"),
    ("program.share", "ratio"),
    ("trace.fingerprint_ms", "ms"),
    ("trace.share", "ratio"),
    ("matching.pairs_ms", "ms"),
    ("matching.candidates", "count/query"),
    ("matching.share", "ratio"),
    ("encoding.encode_ms", "ms"),
    ("encoding.assertions", "count/query"),
    ("encoding.share", "ratio"),
    ("witness.decode_ms", "ms"),
    ("witness.decodes", "count/query"),
    ("witness.share", "ratio"),
    ("smt.load_ms", "ms"),
    ("smt.load.share", "ratio"),
    ("smt.check_ms", "ms"),
    ("smt.sat_ms", "ms"),
    ("smt.sat.share", "ratio"),
    ("smt.idl_ms", "ms"),
    ("smt.idl.share", "ratio"),
    ("smt.euf_ms", "ms"),
    ("smt.euf.share", "ratio"),
    ("smt.lia_ms", "ms"),
    ("smt.lia_calls", "count/query"),
    ("smt.lia_queries", "count"),
    ("smt.lia.share", "ratio"),
    ("smt.checks", "count/query"),
    ("smt.sat_conflicts", "count/query"),
    ("smt.sat_decisions", "count/query"),
    ("smt.theory_conflicts", "count/query"),
    ("smt.theory_propagations", "count/query"),
    ("smt.max_live_learned", "count"),
    ("smt.arena_bytes", "bytes"),
    ("cache.lookup_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.share", "ratio"),
    ("service.protocol_ms", "ms"),
    ("service.dispatch_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.share", "ratio"),
    ("service.warm_front_share", "ratio"),
    ("service.pool_hit_ratio", "ratio"),
    ("service.pool_hits", "count"),
    ("service.pool_misses", "count"),
    ("service.pool_evictions", "count"),
    ("service.timeouts", "count"),
    ("service.worker_crashes", "count"),
    ("service.redispatches", "count"),
    ("session.glue_ms", "ms"),
    ("session.share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.coverage_p1", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("counts.drift", "count"),
    ("error_rate", "ratio"),
]

#: Layers whose sum is "the warm front end" of a service request.
WARM_FRONT = (
    "program.record",
    "trace.fingerprint",
    "cache.lookup",
    "cache.store",
    "service.protocol",
    "service.dispatch",
)


@dataclass
class Report:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    errors: int = 0
    wrong: List[str] = field(default_factory=list)
    drift: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Counts that must repeat exactly for this seed, compared across runs.
    counts: Dict[str, object] = field(default_factory=dict)
    kernel_faults: int = 0


def remove_kernel_build(src: str) -> None:
    """Drop the cached native kernel so the next start builds it again."""
    for path in glob.glob(os.path.join(src, "repro", "smt", "_satkernel-*.so")):
        os.remove(path)


def _score(report: Report, *outcomes: Outcome) -> None:
    for outcome in outcomes:
        report.attempted += outcome.attempted
        report.errors += outcome.errors
        report.wrong.extend(outcome.wrong)
        report.drift.extend(outcome.drift)
        report.kernel_faults += outcome.kernel_faults


def _compare_counts(report: Report, label: str, first: Dict, second: Dict) -> None:
    for key in sorted(set(first) & set(second)):
        if first[key] != second[key]:
            report.drift.append(f"{label} {key}: {first[key]} -> {second[key]}")


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, passes: float, warm: Optional[List[bool]] = None) -> Dict:
    requests = tracer.requests
    n = len(requests)
    wall = sum(r["wall_ns"] for r in requests)
    self_ns = {layer: sum(r["layers"][layer] for r in requests) for layer in LAYERS}

    def ms(ns: float) -> float:
        return ns / n / 1e6

    def share(*layers: str) -> float:
        return sum(self_ns[layer] for layer in layers) / wall

    covered = [sum(r["layers"].values()) / r["wall_ns"] for r in requests if r["wall_ns"]]
    values = {
        "program.record_ms": ms(self_ns["program.record"]),
        "program.record_calls": tracer.calls["program.record"] / n,
        "program.share": share("program.record"),
        "trace.fingerprint_ms": ms(self_ns["trace.fingerprint"]),
        "trace.share": share("trace.fingerprint"),
        "matching.pairs_ms": ms(self_ns["matching.pairs"]),
        "matching.candidates": tracer.counts["matching.candidates"] / n,
        "matching.share": share("matching.pairs"),
        "encoding.encode_ms": ms(self_ns["encoding.encode"]),
        "encoding.assertions": tracer.counts["encoding.assertions"] / n,
        "encoding.share": share("encoding.encode"),
        "witness.decode_ms": ms(self_ns["witness.decode"]),
        "witness.decodes": tracer.calls["witness.decode"] / n,
        "witness.share": share("witness.decode"),
        "smt.load_ms": ms(self_ns["smt.load"]),
        "smt.load.share": share("smt.load"),
        "smt.check_ms": ms(tracer.inclusive_ns["smt.check"]),
        "smt.sat_ms": ms(self_ns["smt.check"]),
        "smt.sat.share": share("smt.check"),
        "smt.idl_ms": ms(self_ns["smt.idl"]),
        "smt.idl.share": share("smt.idl"),
        "smt.euf_ms": ms(self_ns["smt.euf"]),
        "smt.euf.share": share("smt.euf"),
        "smt.lia_ms": ms(self_ns["smt.lia"]),
        "smt.lia_calls": tracer.calls["smt.lia"] / n,
        "smt.lia_queries": sum(1 for r in requests if r["lia"]) / passes,
        "smt.lia.share": share("smt.lia"),
        "smt.checks": tracer.counts["smt.checks"] / n,
        "smt.sat_conflicts": tracer.counts["smt.sat_conflicts"] / n,
        "smt.sat_decisions": tracer.counts["smt.sat_decisions"] / n,
        "smt.theory_conflicts": tracer.counts["smt.theory_conflicts"] / n,
        "smt.theory_propagations": tracer.counts["smt.theory_propagations"] / n,
        "smt.max_live_learned": tracer.gauges["smt.max_live_learned"],
        "smt.arena_bytes": tracer.gauges["smt.arena_bytes"],
        "cache.lookup_ms": ms(self_ns["cache.lookup"]),
        "cache.store_ms": ms(self_ns["cache.store"]),
        "cache.share": share("cache.lookup", "cache.store"),
        "service.protocol_ms": ms(self_ns["service.protocol"]),
        "service.dispatch_ms": ms(self_ns["service.dispatch"]),
        "service.share": share("service.protocol", "service.dispatch"),
        "session.glue_ms": ms(self_ns["session.glue"]),
        "session.share": share("session.glue"),
        "trace.coverage": sum(self_ns.values()) / wall,
        "trace.coverage_p1": percentile(covered, 1.0),
    }
    if warm is not None:
        warm_requests = [r for r, is_warm in zip(requests, warm) if is_warm]
        warm_wall = sum(r["wall_ns"] for r in warm_requests)
        front = sum(r["layers"][layer] for r in warm_requests for layer in WARM_FRONT)
        values["service.warm_front_share"] = front / warm_wall if warm_wall else 0.0
    return values


def _per_layer(values: Dict) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric; those a workload does not reach read 0."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


def run_library(name, seed, seconds, trace, setup, scratch) -> Report:
    workload = LIBRARY_WORKLOADS[name]
    report = Report()
    setup_s = setup(1 if trace else SETUP_REPS)
    plan = workload.plan(load_expected(), seed)
    if not trace:
        outcome = workload.measure(plan, seconds)
        _score(report, outcome)
        report.metrics, ungated = end_to_end(
            outcome, workload.preferred_tail, setup_s, self_peak_rss_mb()
        )
        report.counts = {key: list(value) for key, value in outcome.counts.items()}
        report.notes.append(
            f"{outcome.passes} passes of {len(plan)} queries; latencies are each "
            "query's median, priced at the reference host speed"
        )
        report.notes.extend(ungated)
        return report

    untraced = workload.measure(plan, seconds / 2, min_passes=1, priced=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.measure(
            plan, 0.0, tracer.request, min_passes=untraced.passes, priced=False
        )
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(os.path.dirname(scratch), f"spans-{name}.jsonl"))
    _score(report, untraced, traced)
    _compare_counts(report, "untraced->traced", untraced.counts, traced.counts)
    report.counts = {key: list(value) for key, value in untraced.counts.items()}
    values = layer_metrics(tracer, untraced.passes)
    values["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    values["counts.drift"] = len(report.drift)
    values["error_rate"] = report.errors / report.attempted
    report.metrics = _per_layer(values)
    report.notes.append(f"traced {untraced.passes} pass(es) of {len(plan)} queries")
    return report


# ---------------------------------------------------------------------------
# Service stream
# ---------------------------------------------------------------------------


def _stats_counts(stats: Dict) -> Dict[str, int]:
    pool = stats.get("pool", {})
    cache = stats.get("cache", {})
    return {
        "pool_hits": pool.get("hits", 0),
        "pool_misses": pool.get("misses", 0),
        "pool_evictions": pool.get("evictions", 0),
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "cache_stores": cache.get("stores", 0),
        "timeouts": stats.get("timeouts", 0),
        "worker_crashes": stats.get("worker_crashes", 0),
        "redispatches": stats.get("redispatches", 0),
    }


def _tcp_pass(src: str, scratch: str, requests, outcome: Outcome):
    """One pass against a fresh daemon: start it, ask every request, stop it.

    The start is timed up to the answer to :data:`SETUP_QUESTION` and
    rebuilds the native kernel (its cached build is removed first); the
    daemon gets a fresh cache directory.  Both the set-up and every request
    are priced at the reference host speed (``measure.priced_s``, and a
    :class:`SpeedProbe` in this process while it waits for each reply).
    Each reply is checked and its priced latency folded into ``outcome``.
    Returns (set-up seconds, the daemon's ``stats`` counts after the pass,
    peak memory of daemon + worker, raw per-request latencies).
    """
    from repro.service import ServiceClient
    from repro.utils.errors import ServiceError

    remove_kernel_build(src)
    before = reference_speed_ns()
    start = time.perf_counter()
    daemon = Daemon(src, tempfile.mkdtemp(prefix="cache-", dir=scratch))
    try:
        client = ServiceClient(daemon.address, timeout=60.0)
        workload, params, mode = SETUP_QUESTION
        result = client.verify(workload, params=params, mode=mode)
        setup_s = priced_s(time.perf_counter() - start, before, reference_speed_ns())
        outcome.attempted += 1
        if result.verdict.value != analytic_verdict(workload, params, mode):
            outcome.wrong.append(f"set-up answer {result.verdict.value}")
        latencies, timings = [], []
        with SpeedProbe() as probe:
            for slot, (workload, params, mode, seed, _) in enumerate(requests):
                outcome.attempted += 1
                first = probe.mark()
                began = time.perf_counter()
                try:
                    result = client.verify(workload, params=params, seed=seed, mode=mode)
                except ServiceError as exc:
                    outcome.wrong.append(f"{question_name(workload, params, mode)}: {exc}")
                    latencies.append(float("nan"))
                    continue
                elapsed_ms = (time.perf_counter() - began) * 1000.0
                latencies.append(elapsed_ms)
                timings.append((slot, elapsed_ms, first, probe.mark()))
                check_service_answer(outcome, workload, params, mode, result)
        for slot, elapsed_ms, first, last in timings:
            outcome.observe(slot, probe.priced_ms(elapsed_ms, first, last))
        counts = _stats_counts(client.stats())
        rss_mb = daemon.peak_rss_mb()
        status = daemon.shutdown(client)
    finally:
        daemon.close()
    if status != 0:
        outcome.wrong.append(f"daemon exited with status {status} after shutdown")
    return setup_s, counts, rss_mb, latencies


def run_service(src, seed, seconds, trace, scratch) -> Report:
    """Fresh-daemon passes over one seeded request list.

    Every pass starts from the same state (new daemon, empty pool and
    cache), so request ``i`` does the same work in every pass and its
    median priced latency is comparable across runs.  At least
    :data:`SETUP_REPS` passes run, one per timed set-up.
    """
    from repro.service import DEFAULT_POOL_SIZE

    report = Report()
    stream = ServiceStream(seed, DEFAULT_POOL_SIZE)
    stream.observe(*SETUP_QUESTION[:2])
    requests = stream.take(PASS_REQUESTS)
    model = {"pool_hits": stream.model_hits, "pool_misses": stream.model_misses}
    outcome = Outcome.for_requests([miss for *_, miss in requests], statistics.median)
    setups, rss, latencies = [], [], []
    start = time.perf_counter()
    last = 0.0
    while outcome.passes < (1 if trace else SETUP_REPS) or (
        not trace and time.perf_counter() - start + last <= seconds
    ):
        began = time.perf_counter()
        setup_s, counts, rss_mb, latencies = _tcp_pass(src, scratch, requests, outcome)
        last = time.perf_counter() - began
        outcome.passes += 1
        setups.append(setup_s)
        rss.append(rss_mb)
        if not report.counts:
            report.counts = counts
            _compare_counts(report, "LRU model->daemon", model, counts)
        else:
            _compare_counts(report, "pass 1->later pass", report.counts, counts)
    if not trace:
        _score(report, outcome)
        report.metrics, ungated = end_to_end(
            outcome, 99.0, statistics.median(setups), statistics.median(rss)
        )
        misses = sum(outcome.cold)
        report.notes.append(
            f"{outcome.passes} fresh-daemon passes of {len(requests)} requests "
            f"({misses} pool misses, {misses / len(requests):.1%}); latencies are "
            "each request's median, priced at the reference host speed"
        )
        report.notes.extend(ungated)
        return report
    return _trace_service(report, outcome, requests, latencies, scratch)


def _inprocess_pass(requests, cache_dir: str, tracer: Optional[Tracer] = None):
    """Replay ``requests`` through an in-process service, framing each
    request and reply exactly as the client and the daemon do on the wire.
    Like a fresh daemon, the service first answers :data:`SETUP_QUESTION`
    (untimed).  Returns (outcome, stats counts, per-request from-cache)."""
    from repro.service import protocol
    from repro.service.server import VerificationService

    outcome = Outcome.for_requests([miss for *_, miss in requests])
    from_cache: List[bool] = []
    service = VerificationService(jobs=0, cache_dir=cache_dir)
    try:
        workload, params, mode = SETUP_QUESTION
        spec = {"workload": workload, "seed": 0, "mode": mode, "params": params}
        _framed_call(protocol, service, spec, 0)
        start = time.perf_counter()
        for slot, (workload, params, mode, seed, _) in enumerate(requests):
            spec = {"workload": workload, "seed": seed, "mode": mode, "params": params}
            outcome.attempted += 1
            began = time.perf_counter()
            if tracer is None:
                reply = _framed_call(protocol, service, spec, slot + 1)
            else:
                with tracer.request(workload):
                    reply = _framed_call(protocol, service, spec, slot + 1)
            outcome.observe(slot, (time.perf_counter() - began) * 1000.0)
            if "error" in reply:
                outcome.wrong.append(f"{question_name(workload, params, mode)}: {reply['error']}")
                from_cache.append(False)
                continue
            result = protocol.payload_to_result(reply["result"]["result"])
            check_service_answer(outcome, workload, params, mode, result)
            from_cache.append(result.from_cache)
        outcome.wall_s = time.perf_counter() - start
        outcome.passes = 1
        counts = _stats_counts(service.handle_json(protocol.make_request("stats"))["result"])
    finally:
        service.close()
    return outcome, counts, from_cache


def _framed_call(protocol, service, spec, request_id):
    frame = protocol.encode_frame(protocol.make_request("verify", spec, request_id))
    response = service.handle_json(protocol.decode_frame(frame))
    return protocol.decode_frame(protocol.encode_frame(response))


def _trace_service(report, tcp, requests, tcp_latencies, scratch) -> Report:
    untraced, untraced_counts, _ = _inprocess_pass(requests, tempfile.mkdtemp(dir=scratch))
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_counts, from_cache = _inprocess_pass(
            requests, tempfile.mkdtemp(dir=scratch), tracer
        )
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(os.path.dirname(scratch), "spans-service_stream.jsonl"))
    _score(report, tcp, untraced, traced)
    _compare_counts(report, "tcp->in-process", report.counts, untraced_counts)
    _compare_counts(report, "untraced->traced", untraced_counts, traced_counts)

    counts = report.counts
    pool_lookups = counts["pool_hits"] + counts["pool_misses"]
    cache_lookups = counts["cache_hits"] + counts["cache_misses"]
    # Warm: the pool held the session and the cache held the answer.
    warm = [not miss and cached for (*_, miss), cached in zip(requests, from_cache)]
    values = layer_metrics(tracer, 1, warm=warm)
    values.update(
        {
            "service.transport_ms": statistics.mean(tcp_latencies)
            - statistics.mean(untraced.request_ms()),
            "service.pool_hit_ratio": counts["pool_hits"] / pool_lookups,
            "cache.hit_ratio": counts["cache_hits"] / cache_lookups,
            "service.pool_hits": counts["pool_hits"],
            "service.pool_misses": counts["pool_misses"],
            "service.pool_evictions": counts["pool_evictions"],
            "cache.hits": counts["cache_hits"],
            "cache.misses": counts["cache_misses"],
            "cache.stores": counts["cache_stores"],
            "service.timeouts": counts["timeouts"],
            "service.worker_crashes": counts["worker_crashes"],
            "service.redispatches": counts["redispatches"],
            "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
            "counts.drift": len(report.drift),
            "error_rate": report.errors / report.attempted,
        }
    )
    report.metrics = _per_layer(values)
    report.notes.append(
        f"{len(requests)} requests over TCP, replayed in-process untraced and traced"
    )
    return report
