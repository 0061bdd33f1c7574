"""Bulk co-sim storms must not starve interactive verification traffic.

The soak path submits co-sim batches at ``bulk`` priority precisely so
that a standing fuzzing load shares the daemon with interactive users.
With a single runner and strict-priority dequeueing, an interactive job
submitted *behind* a storm of queued bulk jobs must overtake every bulk
job that has not already started — and the per-priority queue+run latency
telemetry must show the gap.
"""

from __future__ import annotations

import time

import pytest

from repro.service.protocol import SubmitRequest
from repro.service.server import VerificationService

STORM = 6
PER_JOB_CASES = 10


@pytest.fixture(scope="module")
def storm_run():
    """One bulk storm + one trailing interactive job, run to completion."""
    service = VerificationService()
    service.start()
    try:
        # Warm the shared trace cache so bulk job durations are comparable.
        from repro.cosim.driver import run_service_batch

        run_service_batch("riscv", seed=99, count=3)

        bulk = [
            service.submit(SubmitRequest(
                case="cosim:riscv",
                kwargs={"seed": 100 + i, "count": PER_JOB_CASES},
                priority="bulk",
            ))
            for i in range(STORM)
        ]
        interactive = service.submit(SubmitRequest(
            case="cosim:riscv",
            kwargs={"seed": 7, "count": PER_JOB_CASES},
            priority="interactive",
        ))
        submitted_at = time.time()

        deadline = time.time() + 300
        jobs = [*bulk, interactive]
        while time.time() < deadline:
            if all(j.state in ("done", "failed") for j in jobs):
                break
            time.sleep(0.05)
        yield service, bulk, interactive, submitted_at
    finally:
        service.stop()


class TestBulkDoesNotStarveInteractive:
    def test_all_jobs_completed(self, storm_run):
        _service, bulk, interactive, _t = storm_run
        for job in [*bulk, interactive]:
            assert job.state == "done", (job.id, job.state, job.error)
            assert job.result["outcome"] == "pass"

    def test_interactive_overtakes_queued_bulk(self, storm_run):
        """At most one bulk job (the one already running at submit time)
        may finish ahead of the interactive job."""
        _service, bulk, interactive, submitted_at = storm_run
        ahead = [j.id for j in bulk if j.finished < interactive.finished]
        already_running = [j.id for j in bulk if j.started and j.started <= submitted_at]
        assert len(ahead) <= max(1, len(already_running)), (
            f"interactive was starved: bulk jobs {ahead} finished first"
        )

    def test_priority_latency_telemetry_shows_the_gap(self, storm_run):
        service, _bulk, _interactive, _t = storm_run
        by_priority = service.telemetry.snapshot()["latency_by_priority"]
        assert set(by_priority) >= {"bulk", "interactive"}
        assert by_priority["interactive"]["count"] == 1
        assert by_priority["bulk"]["count"] == STORM
        # Queue+run p95: the storm queues behind itself, interactive does not.
        assert by_priority["interactive"]["p95_s"] < by_priority["bulk"]["p95_s"]

    def test_cosim_counters_flowed_into_telemetry(self, storm_run):
        service, _bulk, _interactive, _t = storm_run
        counters = service.telemetry.snapshot()["counters"]
        assert counters["cosim_cases"] >= (STORM + 1) * PER_JOB_CASES
        assert counters.get("cosim_divergences", 0) == 0
        assert counters["outcome_pass"] >= STORM + 1
