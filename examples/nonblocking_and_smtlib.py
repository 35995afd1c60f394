#!/usr/bin/env python3
"""Non-blocking receives, custom properties and SMT-LIB export.

This example shows the parts of the API a user debugging a real MCAPI
application would touch:

1. a workload using ``mcapi_msg_recv_i`` + ``mcapi_wait`` (the paper's match
   predicate must anchor the happens-before on the *wait*, not the issue);
2. a custom property phrased over a specific receive's value rather than an
   in-program assertion;
3. exporting the generated problem as an SMT-LIB v2 script, which is what the
   paper's tool handed to Yices — useful for cross-checking with an external
   solver.

Run with::

    python examples/nonblocking_and_smtlib.py
"""

from repro.encoding import ReceiveValueProperty
from repro.program import ProgramBuilder, V, C, run_program
from repro.smt import Eq, IntVal, SmtLibPipeBackend
from repro.verification import Verdict, VerificationSession


def build_program():
    """Two producers race into a consumer that posts both receives up front."""
    builder = ProgramBuilder("nonblocking_demo")

    consumer = builder.thread("consumer")
    consumer.recv_i("first", handle="h0")
    consumer.recv_i("second", handle="h1")
    consumer.wait("h0")
    consumer.wait("h1")
    consumer.assign("total", V("first") + V("second"))
    consumer.assertion(V("total").eq(C(30)), label="total-is-30")

    builder.thread("producerA").send("consumer", C(10))
    builder.thread("producerB").send("consumer", C(20))
    return builder.build()


def main() -> None:
    program = build_program()

    print("=== program assertion: first + second == 30 ===")
    result = VerificationSession.from_program(program, seed=0).verdict()
    print(f"verdict: {result.verdict.value}   (expected: safe — the sum is order independent)")
    print()

    print("=== custom property: the FIRST receive always gets producerA's 10 ===")
    run = run_program(program, seed=0)
    first_recv = min(op.recv_id for op in run.trace.receive_operations())
    prop = ReceiveValueProperty(
        first_recv, lambda v: Eq(v, IntVal(10)), name="first-is-from-A"
    )
    session = VerificationSession(run.trace, properties=[prop], program_run=run)
    racy = session.verdict()
    print(f"verdict: {racy.verdict.value}   (expected: violation — B can be bound first)")
    if racy.verdict is Verdict.VIOLATION:
        print("counterexample receive values:", racy.witness.receive_values)
    print()

    print("=== SMT-LIB export of the generated problem (first 25 lines) ===")
    for line in session.problem.to_smtlib().splitlines()[:25]:
        print(line)
    print("...")
    print()

    # The same problem can be solved by an external solver instead of the
    # in-tree engine: set REPRO_SMT_SOLVER (e.g. to "z3") and open the
    # session with backend="smtlib-pipe".
    if SmtLibPipeBackend.is_available():
        external = VerificationSession(
            run.trace, properties=[prop], backend="smtlib-pipe"
        ).verdict()
        print(f"external solver verdict: {external.verdict.value}")
    else:
        print("(set REPRO_SMT_SOLVER to cross-check with an external solver)")


if __name__ == "__main__":
    main()
