#!/usr/bin/env python3
"""Reproduce the paper's Figure 4 comparison: which behaviours does each tool see?

Four analyses are run on the Figure 1 program with the assertion
``A == Y`` (violated only by the delayed-message behaviour of Figure 4b):

* **this work**       — the paper's SMT encoding (delays modelled),
* **Elwakil/Yang**    — SMT encoding without transmission delays,
* **MCC**             — explicit-state exploration without transmission delays,
* **exhaustive**      — explicit-state exploration *with* delays (ground truth).

Expected output: the delay-aware analyses admit 2 pairings and find the bug;
the delay-free analyses admit only the Figure 4a pairing and miss it.

Run with::

    python examples/tool_comparison.py
"""

from repro.baselines import ElwakilEncoder, ExplicitStateExplorer, MccChecker
from repro.baselines.explicit import canonical_matching
from repro.encoding.witness import decode_witness
from repro.encoding.variables import match_var
from repro.program import run_program
from repro.smt import And, CheckResult, DpllTBackend, Eq, IntVal, Not
from repro.verification import Verdict, VerificationSession
from repro.workloads import figure1_program


def count_pairings_for_encoder(encoder, trace) -> int:
    """Enumerate the matchings an SMT encoding admits (blocking loop)."""
    problem = encoder.encode(trace, properties=[])
    solver = DpllTBackend()
    solver.add_all(problem.assertions(include_property=False))
    count = 0
    while solver.check() is CheckResult.SAT and count < 30:
        witness = decode_witness(problem, solver.model())
        count += 1
        solver.add(
            Not(And([Eq(match_var(r), IntVal(s)) for r, s in witness.matching.items()]))
        )
    return count


def main() -> None:
    program = figure1_program(assert_a_is_y=True)
    trace = run_program(program, seed=0).trace

    rows = []

    # This work: one session answers both the verdict and the enumeration.
    session = VerificationSession(trace)
    ours = session.verdict()
    ours_pairings = len(session.enumerate_pairings())
    rows.append(("this work (delays modelled)", ours_pairings, ours.verdict is Verdict.VIOLATION))

    # Elwakil / Yang style (no delays).
    elwakil_pairings = count_pairings_for_encoder(ElwakilEncoder(), trace)
    problem = ElwakilEncoder().encode(trace)
    solver = DpllTBackend()
    solver.add_all(problem.assertions())
    elwakil_bug = solver.check() is CheckResult.SAT
    rows.append(("Elwakil/Yang-style (no delays)", elwakil_pairings, elwakil_bug))

    # MCC style (explicit, no delays).
    mcc = MccChecker(program).check()
    rows.append(("MCC-style (no delays)", mcc.pairing_count(), mcc.property_violated))

    # Ground truth: exhaustive exploration with delays.
    explicit = ExplicitStateExplorer(program).explore()
    rows.append(
        ("exhaustive exploration (delays)", explicit.pairing_count(), bool(explicit.assertion_failures))
    )

    print(f"{'analysis':36s} {'pairings admitted':>18s} {'finds A==Y bug':>15s}")
    print("-" * 72)
    for name, pairings, found in rows:
        print(f"{name:36s} {pairings:>18d} {str(found):>15s}")

    print()
    print("Figure 4a pairing: recv(A)<-Y, recv(C)<-Z, recv(B)<-X")
    print("Figure 4b pairing: recv(A)<-X, recv(C)<-Z, recv(B)<-Y  (needs a delayed Y)")


if __name__ == "__main__":
    main()
