#!/usr/bin/env python3
"""Benchmark runner emitting perf-trajectory snapshots.

Two artifacts:

* ``BENCH_solver.json`` — per-module benchmark wall times plus *direct
  solver probes*: fixed workloads driven straight through
  :class:`repro.smt.backend.DpllTBackend`, capturing the full solver
  statistics (theory propagations split by theory, reduceDB rounds,
  clauses deleted, live-clause peak, conflicts, decisions).
* ``BENCH_service.json`` — *service probes*: a mixed-fingerprint query
  stream pushed through :class:`repro.service.server.VerificationService`
  twice, recording cold vs warm-pool queries/sec and the pool counters.

``BENCH_solver.json`` also records the *ratio gates*: the wall-clock
ratios the benchmark modules print (batch sharding speedup, partial-match
encoding overhead, reduceDB overhead, warm-vs-cold service throughput),
each checked against its floor here rather than under pytest, because a
timing ratio depends on the host's cores and load.  A ratio past its floor fails the run.

Both artifacts are uploaded by CI on every run, so the perf trajectory of
the solver hot path and the service layer is recorded PR over PR and a
regression shows up as a diff between artifacts rather than as an
anecdote.  Run from the repository root::

    python tools/bench_report.py --output BENCH_solver.json
    python tools/bench_report.py --quick          # probes + the solver benches
    python tools/bench_report.py --probes-only --service-output BENCH_service.json

Only the standard library is used; pytest is invoked as a subprocess with
the same interpreter.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Benchmark modules in the order they are reported.  The quick subset is
#: the clause-DB module alone — in CI every other module already runs as
#: its own dedicated job step, so the snapshot must not re-run them.
QUICK_BENCHMARKS = [
    "benchmarks/test_bench_clause_db.py",
]
FULL_BENCHMARKS = QUICK_BENCHMARKS + [
    "benchmarks/test_bench_session.py",
    "benchmarks/test_bench_parallel.py",
    "benchmarks/test_bench_deadlock.py",
    "benchmarks/test_bench_figure4.py",
    "benchmarks/test_bench_service.py",
]


def run_benchmarks(modules):
    """Run each benchmark module; return {module: {seconds, exit_status}}."""
    results = {}
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for module in modules:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", module, "-q", "-p", "no:cacheprovider"],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        seconds = time.perf_counter() - start
        results[module] = {
            "seconds": round(seconds, 3),
            "exit_status": proc.returncode,
        }
        status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
        print(f"  {module}: {seconds:.1f}s {status}")
        if proc.returncode != 0:
            print(proc.stdout[-2000:])
    return results


def _ordering_terms(num_clocks, window_slots):
    from repro.smt.terms import IntVal, IntVar, Le, Lt, Or

    clocks = [IntVar(f"clk{i}") for i in range(num_clocks)]
    terms = []
    for i, j in itertools.combinations(range(num_clocks), 2):
        terms.append(Or(Lt(clocks[i], clocks[j]), Lt(clocks[j], clocks[i])))
    for clock in clocks:
        terms.append(Le(IntVal(0), clock))
        terms.append(Le(clock, IntVal(window_slots - 1)))
    return terms


def _random_3sat(seed, num_vars, ratio=4.26):
    import random

    rng = random.Random(seed)
    clauses = []
    for _ in range(int(num_vars * ratio)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def sat_core_probe(num_vars=140, instances=6):
    """Propagation-bound probe: hard random 3-SAT straight into the SAT core.

    Reports propagations/sec (the flat core's headline number), whether
    the native kernel is active, and the arena occupancy after the run —
    live words over total words, showing how much garbage the compaction
    policy tolerates.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.smt.sat import SatResult, SatSolver

    propagations = 0
    conflicts = 0
    compactions = 0
    arena_words = 0
    arena_live = 0
    kernel_active = False
    verdicts = {"sat": 0, "unsat": 0}
    start = time.perf_counter()
    for seed in range(instances):
        solver = SatSolver(reduce_db=True)
        solver.ensure_vars(num_vars)
        solver.add_clauses(_random_3sat(seed, num_vars))
        verdict = solver.solve()
        verdicts["sat" if verdict is SatResult.SAT else "unsat"] += 1
        propagations += solver.stats.propagations
        conflicts += solver.stats.conflicts
        compactions += solver.stats.compactions
        arena_words += solver.arena_words
        arena_live += solver.arena_live_words()
        kernel_active = solver.kernel_active
    seconds = time.perf_counter() - start
    probe = {
        "seconds": round(seconds, 3),
        "instances": instances,
        "num_vars": num_vars,
        "verdicts": verdicts,
        "kernel_active": kernel_active,
        "propagations": propagations,
        "conflicts": conflicts,
        "propagations_per_sec": round(propagations / seconds) if seconds else 0,
        "compactions": compactions,
        "arena_words": arena_words,
        "arena_live_words": arena_live,
        "arena_occupancy": round(arena_live / arena_words, 3) if arena_words else 1.0,
    }
    print(
        f"  probe sat_core_3sat: {seconds:.2f}s, "
        f"{probe['propagations_per_sec']:,} props/s "
        f"(kernel={'on' if kernel_active else 'off'}, "
        f"occupancy={probe['arena_occupancy']})"
    )
    return {"sat_core_3sat": probe}


def solver_probes():
    """Fixed solver workloads reported with their full statistics."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.program.interpreter import run_program
    from repro.smt.backend import DpllTBackend
    from repro.verification.session import VerificationSession
    from repro.workloads.generators import racy_fanin, scatter_gather

    probes = {}

    def record(name, seconds, verdict, stats):
        entry = {"seconds": round(seconds, 3), "verdict": verdict}
        entry.update(stats)
        probes[name] = entry
        print(f"  probe {name}: {seconds:.2f}s ({verdict})")

    # Ordering window: the theory-conflict-heavy UNSAT shape, with and
    # without the hot-path features, so their contributions stay visible.
    # Only the check is timed; the load is the backend-load probe's job.
    terms = _ordering_terms(6, 5)
    for name, knobs in (
        ("ordering_window_6", {}),
        ("ordering_window_6_no_prop", {"idl_propagation": False}),
        ("ordering_window_6_no_reduce", {"reduce_db": False}),
    ):
        backend = DpllTBackend(**knobs)
        backend.add_all(terms)
        start = time.perf_counter()
        verdict = backend.check()
        record(name, time.perf_counter() - start, verdict.value, backend.statistics())

    # One real trace through the full verification stack.
    run = run_program(racy_fanin(5, assert_first_from_sender0=True), seed=0)
    session = VerificationSession(run.trace)
    start = time.perf_counter()
    result = session.verdict()
    record(
        "racy_fanin_5_verdict",
        time.perf_counter() - start,
        result.verdict.value,
        session.statistics(),
    )

    # LIA scaling: scatter_gather asserts a sum of received payloads, so
    # its verdict runs on the simplex lane; one row per worker count.
    for workers in range(2, 6):
        run = run_program(scatter_gather(workers), seed=0)
        session = VerificationSession(run.trace)
        start = time.perf_counter()
        result = session.verdict()
        record(
            f"scatter_gather_{workers}_verdict",
            time.perf_counter() - start,
            result.verdict.value,
            session.statistics(),
        )
    probes.update(backend_load_probe())
    probes.update(idl_check_probe())
    return probes


#: Passes over the load probe's problem set: fixed work, so its ``seconds``
#: tracks the load speed (about 0.5 s on a 2-core host), above the 0.1 s
#: floor of the ``--baseline`` gate.
LOAD_PROBE_PASSES = 6

#: Passes of the IDL check probe: fixed work of about 0.4 s on a 2-core
#: host, so its ``seconds`` sits above the ``--baseline`` gate's floor.
IDL_PROBE_PASSES = 5


def _deadlock_problems():
    """The 29 encoded deadlock questions the backend probes run on.

    ``circular_wait`` with and without kick-start, ``starved_fanin`` and
    20 seeded random deadlock programs, all asked the deadlock question.
    """
    import random

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.verification.session import VerificationSession, resolve_mode
    from repro.workloads.generators import circular_wait, random_program, starved_fanin

    programs = [circular_wait(n, kick) for n in (2, 3, 4) for kick in (False, True)]
    programs += [starved_fanin(n) for n in (2, 3, 4)]
    programs += [
        random_program(random.Random(f"deadlock-{index}"), allow_deadlock=True)
        for index in range(20)
    ]
    options, properties = resolve_mode("deadlock", None, None)
    return [
        VerificationSession.from_program(
            program, options=options, properties=properties, on_deadlock="static"
        ).problem
        for program in programs
    ]


def backend_load_probe():
    """Backend load alone: encoded deadlock problems into fresh backends.

    The problems (:func:`_deadlock_problems`) are encoded up front; the
    timed region is only ``DpllTBackend.add_all`` — term to CNF, clause
    load, atom registration.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.smt.backend import DpllTBackend

    problems = [problem.assertions() for problem in _deadlock_problems()]
    start = time.perf_counter()
    for _ in range(LOAD_PROBE_PASSES):
        for assertions in problems:
            DpllTBackend().add_all(assertions)
    seconds = time.perf_counter() - start
    loads = LOAD_PROBE_PASSES * len(problems)
    probe = {
        "seconds": round(seconds, 3),
        "problems": len(problems),
        "loads": loads,
        "assertions": sum(len(a) for a in problems),
        "ms_per_problem": round(1000 * seconds / loads, 3),
    }
    print(
        f"  probe backend_load_deadlock: {seconds:.2f}s, "
        f"{probe['ms_per_problem']:.2f} ms/problem ({loads} loads)"
    )
    return {"backend_load_deadlock": probe}


def idl_check_probe():
    """The solve alone on the load probe's problems, where IDL dominates.

    Every pass loads each problem (property excluded) into a fresh
    backend untimed, then times only ``backend.check(negated property)``
    (a plain ``check()`` where static analysis left no property).
    ``idl_propagations`` sums the IDL lane's emissions over all checks:
    the search is deterministic, so it must not move under a change that
    claims to leave the lane's output alone.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.smt.backend import DpllTBackend

    problems = [
        (
            problem.assertions(include_property=False),
            [problem.negated_property] if problem.negated_property is not None else [],
        )
        for problem in _deadlock_problems()
    ]
    seconds = 0.0
    propagations = 0
    for _ in range(IDL_PROBE_PASSES):
        for assertions, assumptions in problems:
            backend = DpllTBackend()
            backend.add_all(assertions)
            start = time.perf_counter()
            backend.check(*assumptions)
            seconds += time.perf_counter() - start
            propagations += backend.statistics()["theory_propagations_idl"]
    checks = IDL_PROBE_PASSES * len(problems)
    probe = {
        "seconds": round(seconds, 3),
        "problems": len(problems),
        "checks": checks,
        "idl_propagations": propagations,
        "ms_per_problem": round(1000 * seconds / checks, 3),
    }
    print(
        f"  probe idl_check_deadlock: {seconds:.2f}s, "
        f"{probe['ms_per_problem']:.2f} ms/problem ({checks} checks), "
        f"{propagations} IDL propagations"
    )
    return {"idl_check_deadlock": probe}


def service_probes():
    """Cold vs warm-pool throughput of the verification service.

    The stream is the service benchmark's shape scaled down (8 distinct
    questions × 4 seeds = 32 queries) and runs inline (``jobs=0``) so the
    probe measures pool semantics, not this host's process-spawn latency.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.service import protocol
    from repro.service.server import VerificationService

    specs = [
        {"workload": "figure1"},
        {"workload": "racy_fanin", "params": {"senders": 2}},
        {"workload": "racy_fanin", "params": {"senders": 3}},
        {"workload": "racy_fanin", "params": {"senders": 4}},
        {"workload": "pipeline", "params": {"senders": 6}},
        {"workload": "scatter_gather", "params": {"senders": 3}},
        {"workload": "client_server", "params": {"senders": 3}},
        {"workload": "token_ring", "params": {"senders": 4}},
    ]
    queries = [dict(spec, seed=seed) for seed in range(4) for spec in specs]

    service = VerificationService(jobs=0)
    try:

        def push():
            start = time.perf_counter()
            for index, query in enumerate(queries):
                response = service.handle_json(
                    protocol.make_request("verify", query, request_id=index)
                )
                assert "error" not in response, response
            return time.perf_counter() - start

        cold_seconds = push()
        warm_seconds = push()
        stats = service.handle_json(
            protocol.make_request("stats", request_id=len(queries))
        )["result"]
    finally:
        service.close()

    probe = {
        "queries": len(queries),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "cold_queries_per_sec": round(len(queries) / cold_seconds, 1),
        "warm_queries_per_sec": round(len(queries) / warm_seconds, 1),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
        "pool_hits": stats["pool"]["hits"],
        "pool_misses": stats["pool"]["misses"],
        "recordings": stats["recordings"]["misses"],
    }
    print(
        f"  probe service_stream_32: cold {probe['cold_queries_per_sec']} q/s, "
        f"warm {probe['warm_queries_per_sec']} q/s "
        f"({probe['warm_speedup']}x)"
    )
    return {"service_stream_32": probe}


#: Rounds of ``REPEATS`` encodes timed per side of the partial-match gate.
ENCODE_ROUNDS = 5


def ratio_gates():
    """Each benchmark module's printed wall-clock ratio against its floor.

    The workloads are the benchmark modules' own, imported from them:
    the 32-trace mixed batch (``verify_many_parallel(jobs=4)`` at least
    2x the serial ``verify_many``), Figure 1's partial-match vs base
    encode time (under 2x, best of ``ENCODE_ROUNDS`` interleaved rounds
    per side), the 64-query delivery-window stream with
    reduceDB on vs off (at least 0.8x, i.e. reduction costs no time), and
    the service benchmark's 64-query mixed-fingerprint stream on a
    ``jobs=4`` daemon (the warm pass at least 2x the cold pass's
    queries/sec).
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, REPO_ROOT)
    from benchmarks.test_bench_clause_db import run_stream
    from benchmarks.test_bench_deadlock import MAX_OVERHEAD, encode_seconds
    from benchmarks.test_bench_parallel import mixed_batch
    from benchmarks.test_bench_service import mixed_stream, push_stream
    from repro.encoding import DeadlockProperty, EncoderOptions
    from repro.program import run_program
    from repro.service.server import VerificationService
    from repro.verification import verify_many, verify_many_parallel
    from repro.workloads import figure1_program

    gates = {}

    def record(name, ratio, bound, higher_is_better):
        ok = ratio >= bound if higher_is_better else ratio < bound
        gates[name] = {
            "ratio": round(ratio, 3),
            "bound": bound,
            "better": "higher" if higher_is_better else "lower",
            "ok": ok,
        }
        relation = ">=" if higher_is_better else "<"
        status = "ok" if ok else "FAILED"
        print(f"  gate {name}: {ratio:.2f}x (needs {relation} {bound}x) {status}")

    batch = mixed_batch()
    start = time.perf_counter()
    verify_many(batch)
    serial = time.perf_counter() - start
    start = time.perf_counter()
    verify_many_parallel(batch, jobs=4)
    record(
        "parallel_batch_speedup", serial / (time.perf_counter() - start), 2.0, True
    )

    # Interleaved rounds, best of each: a noisy stretch of the host then
    # slows both encodes alike instead of landing on one side of the ratio.
    trace = run_program(figure1_program(assert_a_is_y=True), seed=0).trace
    base = partial = float("inf")
    for _ in range(ENCODE_ROUNDS):
        base = min(base, encode_seconds(trace, EncoderOptions(), None))
        partial = min(
            partial,
            encode_seconds(
                trace, EncoderOptions(partial_matches=True), [DeadlockProperty()]
            ),
        )
    record("partial_match_encoding_overhead", partial / base, MAX_OVERHEAD, False)

    enabled = run_stream(reduce_db=True)["seconds"]
    disabled = run_stream(reduce_db=False)["seconds"]
    record("reduce_db_stream_speedup", disabled / enabled, 0.8, True)

    queries = mixed_stream()
    service = VerificationService(jobs=4)
    try:
        cold, _ = push_stream(service, queries)
        warm, _ = push_stream(service, queries)
    finally:
        service.close()
    record("service_warm_speedup", cold / warm, 2.0, True)
    return gates


def compare_with_baseline(report, baseline_path, threshold):
    """Wall-time regression gate against a previous ``BENCH_solver.json``.

    Compares the ``seconds`` of every benchmark module and solver probe
    present in both snapshots.  An entry regresses when it is more than
    ``threshold`` times slower *and* at least 0.1s slower in absolute
    terms (sub-100ms probes are noise-bound).  Returns the list of
    regressed entry names.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    regressions = []
    print(f"baseline comparison (threshold {threshold:.2f}x):")
    for section in ("benchmarks", "solver_probes"):
        old_entries = baseline.get(section, {})
        new_entries = report.get(section, {})
        for name in sorted(set(old_entries) & set(new_entries)):
            old_s = old_entries[name].get("seconds")
            new_s = new_entries[name].get("seconds")
            if not old_s or new_s is None:
                continue
            ratio = new_s / old_s
            regressed = ratio > threshold and new_s - old_s > 0.1
            marker = " REGRESSION" if regressed else ""
            print(
                f"  {section}/{name}: {old_s:.2f}s -> {new_s:.2f}s "
                f"({ratio:.2f}x){marker}"
            )
            if regressed:
                regressions.append(f"{section}/{name}")
    if regressions:
        print(f"REGRESSED: {', '.join(regressions)}")
    else:
        print("  no regressions")
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_solver.json")
    parser.add_argument(
        "--service-output",
        default="BENCH_service.json",
        metavar="PATH",
        help="where the service cold-vs-warm snapshot is written",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the solver-focused benchmark modules",
    )
    parser.add_argument(
        "--probes-only",
        action="store_true",
        help="skip pytest benchmark modules entirely",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="previous BENCH_solver.json to compare against; exits 1 when "
        "any shared module or probe regresses past the threshold",
    )
    parser.add_argument(
        "--regression-threshold",
        type=float,
        default=1.3,
        metavar="RATIO",
        help="wall-time ratio above which a baseline comparison fails",
    )
    args = parser.parse_args(argv)

    report = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": {},
        "solver_probes": {},
        "ratio_gates": {},
    }
    print("solver probes:")
    report["solver_probes"] = solver_probes()
    report["solver_probes"].update(sat_core_probe())
    print("ratio gates:")
    report["ratio_gates"] = ratio_gates()
    if not args.probes_only:
        modules = QUICK_BENCHMARKS if args.quick else FULL_BENCHMARKS
        print("benchmark modules:")
        report["benchmarks"] = run_benchmarks(modules)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    service_report = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "service_probes": {},
    }
    print("service probes:")
    service_report["service_probes"] = service_probes()
    with open(args.service_output, "w", encoding="utf-8") as handle:
        json.dump(service_report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.service_output}")
    failed = [
        module
        for module, entry in report["benchmarks"].items()
        if entry["exit_status"] != 0
    ]
    failed += [
        f"ratio_gates/{name}"
        for name, gate in report["ratio_gates"].items()
        if not gate["ok"]
    ]
    regressions = []
    if args.baseline is not None:
        if os.path.exists(args.baseline):
            regressions = compare_with_baseline(
                report, args.baseline, args.regression_threshold
            )
        else:
            # First run of the gate (or the artifact expired): nothing to
            # compare against is not a failure.
            print(f"baseline {args.baseline} not found; skipping comparison")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
