"""ParallelVerifier resilience: batches run on the service WorkerPool, so
they get its recovery — a worker that dies mid-request is respawned and
the request re-dispatched once, and only a genuinely poisonous item is
answered UNKNOWN(worker_crash).  Fault rules target the pool's
``pool.worker.request`` site; a batch question's tag is the name of the
program its trace was recorded from."""

import sys

from repro import faults
from repro.verification import ParallelVerifier, Verdict
from repro.verification.cli import main
from repro.workloads import figure1_program, pipeline, racy_fanin, scatter_gather


def _distinct_batch():
    """Six fingerprint-distinct programs with known verdicts."""
    programs = [
        figure1_program(assert_a_is_y=True),
        pipeline(2),
        pipeline(3),
        pipeline(4),
        racy_fanin(2, assert_first_from_sender0=True),
        scatter_gather(2),
    ]
    expected = [
        Verdict.VIOLATION,
        Verdict.SAFE,
        Verdict.SAFE,
        Verdict.SAFE,
        Verdict.VIOLATION,
        Verdict.SAFE,
    ]
    return programs, expected


class TestBatchRecovery:
    def test_worker_death_mid_batch_keeps_every_clean_verdict(self):
        # Every worker incarnation exits on its second request.  Six
        # questions over three workers put at least two on one worker, and
        # each crashed request lands first on its respawned worker.  More
        # workers than cores and a short switch interval stress the lanes'
        # shared counters: a lost update would break the last assertion.
        faults.install("pool.worker.request:exit:after=1,max=1")
        programs, expected = _distinct_batch()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ParallelVerifier(jobs=3) as verifier:
                results = verifier.verify_many(programs)
                crashes = verifier.pool.worker_crashes
                redispatches = verifier.pool.redispatches
        finally:
            sys.setswitchinterval(interval)
        assert [r.verdict for r in results] == expected
        assert crashes >= 1
        assert redispatches == crashes

    def test_poison_item_alone_answers_unknown(self):
        # pipeline_3 kills every process that touches it — its worker and
        # then the respawned one.  It alone answers UNKNOWN(worker_crash);
        # nobody else is harmed and no verdict is ever wrong.
        faults.install("pool.worker.request:exit:match=pipeline_3,max=0")
        programs, expected = _distinct_batch()
        with ParallelVerifier(jobs=2) as verifier:
            results = verifier.verify_many(programs)
            assert verifier.pool.worker_crashes == 2
        assert len(results) == len(expected)
        for index, (result, clean) in enumerate(zip(results, expected)):
            if index == 2:
                assert result.verdict is Verdict.UNKNOWN
                assert result.unknown_reason == "worker_crash"
            else:
                assert result.verdict is clean


class TestInlineLane:
    def test_inline_crash_becomes_honest_unknown(self):
        # jobs=1 solves on an inline pool in the calling process, where a
        # hard exit would take the caller down: the injected crash answers
        # UNKNOWN(worker_crash) instead of raising.
        faults.install("pool.worker.request:crash:max=1")
        programs, expected = _distinct_batch()
        with ParallelVerifier(jobs=1) as verifier:
            results = verifier.verify_many(programs)
            assert verifier.pool.worker_crashes == 1
        unknowns = [r for r in results if r.verdict is Verdict.UNKNOWN]
        assert len(unknowns) == 1
        assert unknowns[0].unknown_reason == "worker_crash"
        for result, clean in zip(results, expected):
            if result.verdict is not Verdict.UNKNOWN:
                assert result.verdict is clean


class TestCliBatchLane:
    def test_poison_workload_answers_unknown_for_every_repeat(self, capsys):
        # The CLI's four repeats dedup to one question, solved on the
        # inline pool: the injected crash hits it, so all four answer an
        # honest UNKNOWN (no verdict claimed) and the run exits 0.
        faults.install("pool.worker.request:exit:match=figure1,max=0")
        code = main(["--workload", "figure1", "--repeat", "4", "--jobs", "2"])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("reason=worker_crash") == 4
        assert "verdict=violation" not in captured
