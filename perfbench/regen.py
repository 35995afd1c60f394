#!/usr/bin/env python3
"""Regenerate the stored answers of the benchmark's random corpora.

    python3 perfbench/regen.py            # rewrites perfbench/expected.json

For each random corpus (``arith``, ``deadlock``) the command walks program
indices ``0, 1, 2, ...`` and keeps a program when

* the sleep-set (DPOR) explorer exhausts it within ``EXPLORE_BUDGET_S``
  (the explicit-state explorer must agree wherever the trace is at most
  ``EXPLICIT_MAX_EVENTS`` events long);
* one cold symbolic verdict takes at most ``MAX_COST_MS``;
* the symbolic verdict agrees with the explorers.  A disagreement is a
  verifier bug: it is listed under ``disagreements`` and the program stays
  out of the corpus, so the benchmark's error rate measures regressions
  rather than a known defect.

The measured cold cost is stored for reference (it is this host's, not a
bound).  The explorers run here, never during a benchmark run: they are
exponential, and one program can take them tens of seconds.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.baselines.dpor import SleepSetExplorer  # noqa: E402
from repro.baselines.explicit import ExplicitStateExplorer  # noqa: E402
from repro.program.statictrace import static_trace  # noqa: E402

from corpora import (  # noqa: E402
    EXPECTED_PATH,
    FIFO,
    SAFE,
    VIOLATION,
    random_corpus_program,
    verdict_query,
)

#: Programs kept per corpus, the index range scanned, and the caps.
TARGET_PROGRAMS = {"arith": 80, "deadlock": 60}
MAX_INDEX = 600
MAX_EVENTS = {"arith": 14, "deadlock": 20}
EXPLORE_BUDGET_S = 20
EXPLICIT_MAX_EVENTS = 8
MAX_COST_MS = 1000.0

MODES = {"arith": ("safety",), "deadlock": ("deadlock", "orphan")}


class _Budget(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Budget()


def _explore(explorer_cls, program):
    """Exhaust ``program`` or return None when the time budget runs out."""
    signal.alarm(EXPLORE_BUDGET_S)
    try:
        result = explorer_cls(program).explore()
    except _Budget:
        return None
    finally:
        signal.alarm(0)
    return None if result.truncated else result


def _answers(kind, result):
    if kind == "arith":
        return {"safety": VIOLATION if result.assertion_failures else SAFE}
    return {
        "deadlock": VIOLATION if result.deadlocks else SAFE,
        "orphan": VIOLATION if result.orphan_messages else SAFE,
    }


def _cold_cost_ms(program, modes):
    """Median of three cold runs of every mode's verdict, and the verdicts."""
    samples, verdicts = [], {}
    for _ in range(3):
        start = time.perf_counter()
        for mode in modes:
            verdicts[mode] = verdict_query(program, mode, FIFO, seed=0).verdict.value
        samples.append((time.perf_counter() - start) * 1000.0)
        if samples[-1] > MAX_COST_MS:
            break
    return statistics.median(samples), verdicts


def regenerate(kind):
    kept, disagreements, skipped = [], [], 0
    for index in range(MAX_INDEX):
        if len(kept) >= TARGET_PROGRAMS[kind]:
            break
        program = random_corpus_program(kind, index)
        events = len(static_trace(program))
        if events > MAX_EVENTS[kind]:
            skipped += 1
            continue
        dpor = _explore(SleepSetExplorer, program)
        if dpor is None:
            skipped += 1
            continue
        answers = _answers(kind, dpor)
        explorers = ["dpor"]
        if events <= EXPLICIT_MAX_EVENTS:
            explicit = _explore(ExplicitStateExplorer, program)
            if explicit is None or _answers(kind, explicit) != answers:
                skipped += 1
                continue
            explorers.append("explicit")
        cost_ms, verdicts = _cold_cost_ms(program, MODES[kind])
        if cost_ms > MAX_COST_MS:
            skipped += 1
            continue
        if verdicts != answers:
            disagreements.append(
                {"index": index, "explorer": answers, "symbolic": verdicts}
            )
            continue
        kept.append(
            {
                "index": index,
                "events": events,
                "answers": answers,
                "explorers": explorers,
                "cost_ms": round(cost_ms, 3),
            }
        )
        print(f"{kind}-{index}: {events} events, {answers}, {cost_ms:.1f} ms", flush=True)
    return {
        "max_events": MAX_EVENTS[kind],
        "skipped": skipped,
        "disagreements": disagreements,
        "programs": kept,
    }


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    expected = {
        "regenerated_by": "python3 perfbench/regen.py",
        "explore_budget_s": EXPLORE_BUDGET_S,
        "max_cost_ms": MAX_COST_MS,
    }
    for kind in ("arith", "deadlock"):
        expected[kind] = regenerate(kind)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
