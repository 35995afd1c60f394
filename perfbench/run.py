#!/usr/bin/env python3
"""The verifier's benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload service_stream --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the benchmark imports ``src/repro``).
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same queries untraced and then traced (every public
layer function wrapped, see ``tracer.py``) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same numbers for a human, the run's environment, every
wrong answer and every count that drifted.

Workloads, metrics and their layer map are documented in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOAD_NAMES = ("service_stream", "arith_corpus", "pairing_enum", "deadlock_corpus")

def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_digest() -> str:
    """A digest of the checked-out sources (the checkout may not be git)."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.[pc]*"), recursive=True)):
        if path.endswith((".py", ".c")):
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _library_setup(workload: str, reps: int, remove_kernel_build) -> float:
    """Median time of fresh processes that import, build, answer once, at
    the reference host speed (``measure.priced_s``)."""
    from measure import priced_s, reference_speed_ns

    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)
    samples = []
    for _ in range(reps):
        remove_kernel_build(SRC)
        before = reference_speed_ns()
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "first_answer.py"), workload],
            env=env,
            capture_output=True,
            text=True,
            timeout=170,
        )
        samples.append(priced_s(time.perf_counter() - start, before, reference_speed_ns()))
        if completed.returncode != 0:
            raise RuntimeError(f"set-up process failed: {completed.stderr[-500:]}")
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        if not report["correct"]:
            raise RuntimeError("set-up process answered its first query wrongly")
    return statistics.median(samples)


def _counts_file(workload: str, seed: int) -> str:
    return os.path.join(WORKDIR, "counts", f"{workload}-seed{seed}.json")


def _cross_run_drift(workload: str, seed: int, counts: dict) -> list:
    """Compare this run's exact counts with an earlier run of the same seed.

    The first run of a seed in a checkout stores its counts; later runs
    report every count that differs.  Keys present in only one run (a
    shorter run covers fewer queries) are not compared.
    """
    path = _counts_file(workload, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(counts, handle, sort_keys=True)
        return []
    with open(path, "r", encoding="utf-8") as handle:
        earlier = json.load(handle)
    return sorted(
        f"{key}: {earlier[key]} -> {counts[key]}"
        for key in set(earlier) & set(counts)
        if earlier[key] != counts[key]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        return _fail(f"no package to measure: {os.path.join(SRC, 'repro')} is missing")
    if os.environ.get("REPRO_FAULT_PLAN"):
        return _fail("REPRO_FAULT_PLAN is set; a benchmark must not run under a fault plan")
    sys.path.insert(0, SRC)
    from repro import faults

    if faults.ACTIVE is not None:
        return _fail("a fault plan is installed (repro.faults.ACTIVE); refusing to run")
    os.makedirs(WORKDIR, exist_ok=True)

    import runner

    scratch = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        if args.workload == "service_stream":
            report = runner.run_service(SRC, args.seed, args.seconds, args.trace, scratch)
        else:
            setup = lambda reps: _library_setup(  # noqa: E731
                args.workload, reps, runner.remove_kernel_build
            )
            report = runner.run_library(
                args.workload, args.seed, args.seconds, args.trace, setup, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    from repro.smt import satkernel

    report.drift.extend(_cross_run_drift(args.workload, args.seed, report.counts))
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_active": satkernel.load() is not None,
        "kernel_faults": report.kernel_faults,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    print("environment " + json.dumps(environment, sort_keys=True))
    if report.kernel_faults:
        print(
            f"KERNEL FALLBACK: {report.kernel_faults} native-kernel faults; "
            "propagation fell back to pure Python"
        )
    for line in report.notes:
        print(line)
    for wrong in report.wrong:
        print(f"WRONG {wrong}")
    for drift in report.drift:
        print(f"DRIFT {drift}")
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    errors = report.errors
    print(f"error_rate = {errors / max(report.attempted, 1):.6g} ({errors} of {report.attempted})")
    print(
        json.dumps(
            {
                "correct": errors == 0,
                "attempted": report.attempted,
                "failed": errors,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
