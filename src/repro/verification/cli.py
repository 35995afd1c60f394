"""Command-line interface: ``mcapi-verify``.

Runs one of the bundled workloads, records a trace, opens a
:class:`~repro.verification.session.VerificationSession` and reports the
verdict together with a counterexample (when one exists)::

    mcapi-verify --workload figure1 --property a-is-y
    mcapi-verify --workload racy_fanin --senders 3 --seed 2 --show-smt
    mcapi-verify --list-workloads
    mcapi-verify --workload figure1 --backend smtlib-pipe   # external solver
    mcapi-verify --workload circular_wait --check-deadlock
    mcapi-verify --workload racy_fanin --stats          # solver statistics

``--check-deadlock`` switches the question from the safety properties to
symbolic deadlock detection (the partial-match encoding): exit code 1 then
means *a reachable deadlock exists*, and the counterexample names the stuck
endpoints and unmatched sends.  Workloads that deadlock during the
recording run are analysed via their static symbolic trace.

Batch mode — ``--repeat`` records the workload several times (consecutive
seeds) and verifies the whole batch through
:func:`~repro.verification.parallel.verify_many_parallel`: ``--jobs``
dispatches the distinct traces to worker processes, and ``--cache-dir``
memoises verdicts on disk keyed by trace fingerprint::

    mcapi-verify --workload racy_fanin --repeat 8 --jobs 4
    mcapi-verify --workload figure1 --repeat 4 --cache-dir .mcapi-cache

``--timeout SECONDS`` bounds each solver check; a query that exceeds its
budget reports ``unknown`` (reason: timeout) instead of running forever.

Service mode — ``serve`` runs the long-lived daemon
(:mod:`repro.service`), and ``--server ADDR`` offloads a query to one::

    mcapi-verify serve --port 9177 --jobs 4 --cache-dir /tmp/mcapi-cache
    mcapi-verify --server 127.0.0.1:9177 --workload racy_fanin --repeat 8
    mcapi-verify shutdown --server 127.0.0.1:9177

Workloads live in a declarative registry; adding one is a
:func:`register_workload` call, not another ``elif``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.encoding.encoder import EncoderOptions
from repro.program.ast import Program
from repro.smt.backend import available_backends
from repro.utils.errors import (
    BackendUnavailableError,
    EncodingError,
    ServiceError,
    SolverError,
)
from repro.verification.result import Verdict
from repro.verification.session import (
    VerificationSession,
    record_program,
    resolve_mode,
)
from repro.workloads import (
    branching_consumer,
    circular_wait,
    client_server,
    figure1_program,
    nonblocking_fanin,
    pipeline,
    racy_fanin,
    scatter_gather,
    starved_fanin,
    token_ring,
)

__all__ = ["main", "build_parser", "register_workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    """A named, self-describing workload factory for the CLI."""

    name: str
    build: Callable[[argparse.Namespace], Program]
    description: str


#: The workload registry, keyed by ``--workload`` name.
WORKLOADS: Dict[str, Workload] = {}


def register_workload(name: str, description: str):
    """Register a CLI workload; the decorated function maps args -> Program."""

    def decorate(build: Callable[[argparse.Namespace], Program]):
        WORKLOADS[name] = Workload(name=name, build=build, description=description)
        return build

    return decorate


@register_workload("figure1", "the paper's Figure 1 program (see --property)")
def _figure1(args: argparse.Namespace) -> Program:
    return figure1_program(
        assert_a_is_y=(args.property in ("a-is-y", None)),
        assert_a_is_x=(args.property == "a-is-x"),
    )


@register_workload("racy_fanin", "N senders race to one receiver endpoint")
def _racy_fanin(args: argparse.Namespace) -> Program:
    return racy_fanin(args.senders, args.messages, assert_first_from_sender0=True)


@register_workload("nonblocking_fanin", "racy fan-in with non-blocking receives")
def _nonblocking_fanin(args: argparse.Namespace) -> Program:
    return nonblocking_fanin(args.senders)


@register_workload("pipeline", "a value threaded through N stages (safe)")
def _pipeline(args: argparse.Namespace) -> Program:
    return pipeline(max(args.senders, 2))


@register_workload("token_ring", "a token circulating around N threads (safe)")
def _token_ring(args: argparse.Namespace) -> Program:
    return token_ring(max(args.senders, 2))


@register_workload("scatter_gather", "master scatters to N workers, gathers replies")
def _scatter_gather(args: argparse.Namespace) -> Program:
    return scatter_gather(args.senders, assert_order=True)


@register_workload("client_server", "N clients against one server endpoint")
def _client_server(args: argparse.Namespace) -> Program:
    return client_server(args.senders)


@register_workload("branching_consumer", "consumer branching on received values")
def _branching_consumer(args: argparse.Namespace) -> Program:
    return branching_consumer()


@register_workload("circular_wait", "a receive-before-send ring (deadlocks)")
def _circular_wait(args: argparse.Namespace) -> Program:
    return circular_wait(max(args.senders, 2))


@register_workload("starved_fanin", "fan-in expecting one message too many")
def _starved_fanin(args: argparse.Namespace) -> Program:
    return starved_fanin(args.senders, extra_receives=1)


def _list_workloads() -> str:
    width = max(len(name) for name in WORKLOADS)
    lines = ["available workloads:"]
    for name in sorted(WORKLOADS):
        lines.append(f"  {name.ljust(width)}  {WORKLOADS[name].description}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcapi-verify",
        description="Symbolically verify an MCAPI workload from a recorded trace.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="verify",
        choices=["verify", "serve", "shutdown"],
        help="verify a workload (default), run the verification daemon, "
        "or stop a running daemon (with --server)",
    )
    parser.add_argument(
        "--workload",
        default="figure1",
        choices=sorted(WORKLOADS),
        help="which bundled workload to verify",
    )
    parser.add_argument(
        "--list-workloads",
        action="store_true",
        help="list the available workloads and exit",
    )
    parser.add_argument(
        "--backend",
        default="dpllt",
        choices=available_backends(),
        help="solver backend (smtlib-pipe needs REPRO_SMT_SOLVER to name a binary)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print solver statistics (theory propagations, partial-"
        "assignment conflicts, reduceDB rounds, avg explanation size, ...)",
    )
    parser.add_argument(
        "--no-reduce-db",
        action="store_true",
        help="dpllt only: disable learned-clause database reduction "
        "(keeps every learned clause forever)",
    )
    parser.add_argument(
        "--theory-bump",
        type=float,
        default=None,
        metavar="FACTOR",
        help="dpllt only: extra VSIDS activity factor for atoms named by "
        "theory conflicts/propagations (0 disables theory-aware branching)",
    )
    parser.add_argument(
        "--no-idl-propagation",
        action="store_true",
        help="dpllt only: disable difference-logic bound propagation "
        "(entailed bounds fall back to conflict round trips)",
    )
    parser.add_argument(
        "--dimacs",
        default=None,
        metavar="FILE",
        help="solve a DIMACS CNF file with the flat-memory SAT core instead "
        "of a workload; prints 's SATISFIABLE/UNSATISFIABLE' and a 'v' model "
        "line, exit code 10/20 (SAT convention)",
    )
    parser.add_argument(
        "--property",
        default=None,
        choices=[None, "a-is-y", "a-is-x"],
        help="figure1 only: which assertion to add to thread t0",
    )
    parser.add_argument("--senders", type=int, default=3, help="workload size parameter")
    parser.add_argument("--messages", type=int, default=1, help="messages per sender")
    parser.add_argument("--seed", type=int, default=0, help="seed of the recording run")
    parser.add_argument(
        "--match-pairs",
        default="endpoint",
        choices=["endpoint", "precise"],
        help="match-pair generation strategy",
    )
    parser.add_argument(
        "--pair-fifo",
        action="store_true",
        help="add the per-pair FIFO extension constraints",
    )
    parser.add_argument(
        "--show-smt", action="store_true", help="print the generated SMT-LIB script"
    )
    parser.add_argument(
        "--show-trace", action="store_true", help="print the recorded execution trace"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="K",
        help="record and verify K traces (seeds seed..seed+K-1) as one batch",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="dispatch the batch's distinct traces to N worker processes",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="memoise verdicts on disk, keyed by trace fingerprint",
    )
    parser.add_argument(
        "--check-deadlock",
        action="store_true",
        help="check for reachable deadlocks (partial-match encoding) "
        "instead of the safety properties",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query solver budget; an exceeded budget reports "
        "unknown (reason: timeout) instead of running forever",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="ADDR",
        help="offload the query to a running daemon at host:port "
        "(see `mcapi-verify serve`)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="HOST",
        help="serve only: interface to listen on",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve only: TCP port to listen on",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        metavar="N",
        help="serve only: warm verification sessions kept per worker",
    )
    return parser


def _solver_knob_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """The dpllt hot-path knobs actually set on the command line."""
    kwargs: Dict[str, object] = {}
    if args.no_reduce_db:
        kwargs["reduce_db"] = False
    if args.theory_bump is not None:
        kwargs["theory_bump"] = args.theory_bump
    if args.no_idl_propagation:
        kwargs["idl_propagation"] = False
    return kwargs


def _run_batch(args: argparse.Namespace, traces: list, options, mode: str) -> int:
    """Verify a ``--repeat``/``--jobs``/``--cache-dir`` batch of recordings."""
    from repro.verification.parallel import verify_many_parallel

    for flag in ("show_trace", "show_smt", "stats"):
        if getattr(args, flag):
            print(
                f"warning: --{flag.replace('_', '-')} is ignored in batch mode",
                file=sys.stderr,
            )
    backend = args.backend
    spec_kwargs = _solver_knob_kwargs(args)
    if spec_kwargs:
        from repro.smt.backend import BackendSpec

        backend = BackendSpec.of(backend, **spec_kwargs)
    results = verify_many_parallel(
        traces,
        jobs=max(args.jobs, 1),
        backend=backend,
        options=options,
        cache_dir=args.cache_dir,
        mode=mode,
        timeout_s=args.timeout,
    )
    for index, result in enumerate(results):
        origin = "cache" if result.from_cache else (result.backend or "?")
        reason = (
            f" reason={result.unknown_reason}" if result.unknown_reason else ""
        )
        print(
            f"[{index}] seed={args.seed + index} "
            f"verdict={result.verdict.value}{reason} ({origin})"
        )
    solved = sum(1 for result in results if not result.from_cache)
    print(
        f"batch: {len(results)} traces, {solved} solved, "
        f"{len(results) - solved} answered from cache/dedup"
    )
    return 1 if any(r.verdict is Verdict.VIOLATION for r in results) else 0


def _run_serve(args: argparse.Namespace) -> int:
    """``mcapi-verify serve`` — run the verification daemon until shutdown."""
    from repro.service import DEFAULT_POOL_SIZE, DEFAULT_PORT, run_server

    return run_server(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        jobs=max(args.jobs, 0),
        pool_size=(
            args.pool_size if args.pool_size is not None else DEFAULT_POOL_SIZE
        ),
        cache_dir=args.cache_dir,
        default_timeout_s=args.timeout,
    )


def _run_shutdown(args: argparse.Namespace) -> int:
    """``mcapi-verify shutdown --server ADDR`` — stop a running daemon."""
    from repro.service import DEFAULT_PORT, ServiceClient

    address = args.server or f"127.0.0.1:{DEFAULT_PORT}"
    with ServiceClient(address) as client:
        client.shutdown()
    print(f"verification service at {client.address} stopping")
    return 0


def _run_remote(args: argparse.Namespace, mode: str) -> int:
    """``--server ADDR`` — offload the query to a running daemon."""
    from repro.service import ServiceClient

    for flag in ("show_trace", "show_smt"):
        if getattr(args, flag):
            print(
                f"warning: --{flag.replace('_', '-')} is ignored with --server "
                "(traces and encodings stay on the daemon)",
                file=sys.stderr,
            )
    params = {"senders": args.senders, "messages": args.messages}
    if args.property is not None:
        params["property"] = args.property
    shared: Dict[str, object] = {
        "workload": args.workload,
        "params": params,
        "mode": mode,
        "backend": args.backend,
        "match_pairs": args.match_pairs,
        "pair_fifo": args.pair_fifo,
    }
    if args.timeout is not None:
        shared["timeout_s"] = args.timeout
    repeat = max(args.repeat, 1)
    queries = [{"seed": args.seed + offset} for offset in range(repeat)]
    with ServiceClient(args.server) as client:
        results = client.verify_batch(queries, **shared)
        if args.stats:
            stats = client.stats()
    for index, result in enumerate(results):
        origin = "cache" if result.from_cache else (result.backend or "?")
        reason = (
            f" reason={result.unknown_reason}" if result.unknown_reason else ""
        )
        print(
            f"[{index}] seed={args.seed + index} "
            f"verdict={result.verdict.value}{reason} ({origin})"
        )
    if repeat == 1:
        print(results[0].describe())
    if args.stats:
        print()
        print("service statistics:")
        pool = stats.get("pool", {})
        cache = stats.get("cache") or {}
        for label, source in (("pool", pool), ("cache", cache)):
            for key in sorted(source):
                if isinstance(source[key], (int, float, str, bool)):
                    print(f"  {label}.{key} = {source[key]}")
        for key in (
            "requests",
            "timeouts",
            "worker_kills",
            "worker_crashes",
            "redispatches",
            "poisoned",
            "jobs",
        ):
            if key in stats:
                print(f"  {key} = {stats[key]}")
        degradations = stats.get("degradations") or []
        if degradations:
            print(f"  degradations = {len(degradations)}")
            for event in degradations:
                print(
                    f"    {event.get('layer')}: {event.get('from')} -> "
                    f"{event.get('to')} ({event.get('reason')})"
                )
    return 1 if any(r.verdict is Verdict.VIOLATION for r in results) else 0


def _run_dimacs(args: argparse.Namespace) -> int:
    """``--dimacs FILE`` — solve a CNF instance with the SAT core directly."""
    import time

    from repro.smt.dimacs import load_dimacs
    from repro.smt.sat import SatResult

    problem = load_dimacs(args.dimacs)
    solver_kwargs: Dict[str, object] = {}
    if args.no_reduce_db:
        solver_kwargs["reduce_db"] = False
    solver = problem.solver(**solver_kwargs)
    deadline = time.monotonic() + args.timeout if args.timeout else None
    verdict = solver.solve(deadline=deadline)
    print(f"c {args.dimacs}: {problem.num_vars} vars, {len(problem.clauses)} clauses")
    if verdict is SatResult.SAT:
        print("s SATISFIABLE")
        model = solver.model()
        lits = [
            str(var if model.get(var, False) else -var)
            for var in range(1, problem.num_vars + 1)
        ]
        print(f"v {' '.join(lits)} 0")
    elif verdict is SatResult.UNSAT:
        print("s UNSATISFIABLE")
    else:
        print("s UNKNOWN")
    if args.stats:
        print("c solver statistics:")
        for key, value in sorted(solver.stats.as_dict().items()):
            print(f"c   {key} = {value}")
    if verdict is SatResult.SAT:
        return 10
    return 20 if verdict is SatResult.UNSAT else 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_workloads:
        print(_list_workloads())
        return 0
    if args.dimacs is not None:
        try:
            return _run_dimacs(args)
        except SolverError as exc:
            print(f"dimacs error: {exc}", file=sys.stderr)
            return 2
    mode = "deadlock" if args.check_deadlock else "safety"
    try:
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "shutdown":
            return _run_shutdown(args)
        if args.server is not None:
            return _run_remote(args, mode)
    except ServiceError as exc:
        if getattr(exc, "unavailable", False):
            # Connection never established: one actionable line, and the
            # conventional EX_UNAVAILABLE status so wrappers can tell
            # "daemon not running" from a query that failed.
            print(f"error: {exc}", file=sys.stderr)
            return 69
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    program = WORKLOADS[args.workload].build(args)

    options = EncoderOptions.named(args.match_pairs, args.pair_fifo)
    on_deadlock = "static" if mode == "deadlock" else "raise"
    try:
        recordings = [
            record_program(program, args.seed + offset, on_deadlock)
            for offset in range(max(args.repeat, 1))
        ]
    except EncodingError as exc:
        hint = "" if mode == "deadlock" else "; rerun with --check-deadlock"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    try:
        if args.repeat > 1 or args.jobs > 1 or args.cache_dir is not None:
            traces = [trace for trace, _ in recordings]
            return _run_batch(args, traces, options, mode)
        # Resolve the mode up front so the session is built in the right
        # configuration directly (one encoding), exactly like the batch lane.
        resolved_options, properties = resolve_mode(mode, options, None)
        trace, run = recordings[0]
        session = VerificationSession(
            trace,
            options=resolved_options,
            properties=properties,
            backend=args.backend,
            program_run=run,
            **_solver_knob_kwargs(args),
        )
        result = session.verdict(timeout_s=args.timeout)
    except BackendUnavailableError as exc:
        print(f"backend {args.backend!r} unavailable: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure in backend {args.backend!r}: {exc}", file=sys.stderr)
        return 2

    if args.show_trace and result.trace is not None:
        print(result.trace.pretty())
        print()
    if args.show_smt:
        print(result.problem.to_smtlib())
        print()

    print(result.describe())
    if args.stats:
        print()
        print("solver statistics:")
        statistics = result.solver_statistics or session.statistics()
        for key in sorted(statistics):
            print(f"  {key} = {statistics[key]}")
    return 1 if result.verdict is Verdict.VIOLATION else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
