"""One library set-up: import, build the native SAT kernel, first answer.

    python3 perfbench/first_answer.py WORKLOAD

Run as a fresh process by ``run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``; the parent times the whole process.  Prints one JSON
line: whether the kernel loaded and whether the first answer was right.
"""

from __future__ import annotations

import json
import sys

from repro.smt import satkernel

from corpora import Query
from workloads import LibraryWorkload

#: The fixed first question of each library workload (cheap and seed-free,
#: so set-up time measures start-up rather than which query came first).
FIRST_QUERIES = {
    "arith_corpus": Query("scatter_gather_1", ("scatter_gather", 1, False), "safety", "safe"),
    "pairing_enum": Query("racy_fanin_4_1", ("racy_fanin", 4, 1), "enumerate", 24),
    "deadlock_corpus": Query(
        "circular_wait_2", ("circular_wait", 2, False), "deadlock", "violation"
    ),
}


def main(workload: str) -> int:
    kernel_active = satkernel.load() is not None
    query = FIRST_QUERIES[workload]
    answer = LibraryWorkload.execute(query, query.program(), 0)[0]
    print(json.dumps({"kernel_active": kernel_active, "correct": answer == query.expected}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
