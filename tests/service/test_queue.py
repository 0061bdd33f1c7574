"""The job queue: priorities, admission control, per-job budgets."""

from __future__ import annotations

import threading

import pytest

from repro.resilience import BudgetSpec
from repro.service.protocol import CANCELLED, JobRecord, SubmitRequest
from repro.service.queue import AdmissionError, JobQueue


def _job(case="rbit", priority="batch", **kwargs):
    return JobRecord(SubmitRequest(case=case, priority=priority, **kwargs))


class TestOrdering:
    def test_strict_priority(self):
        queue = JobQueue()
        bulk = _job(priority="bulk")
        interactive = _job(priority="interactive")
        batch = _job(priority="batch")
        for job in (bulk, interactive, batch):
            queue.submit(job)
        assert queue.take(timeout=0) is interactive
        assert queue.take(timeout=0) is batch
        assert queue.take(timeout=0) is bulk

    def test_fifo_within_class(self):
        queue = JobQueue()
        jobs = [_job() for _ in range(4)]
        for job in jobs:
            queue.submit(job)
        assert [queue.take(timeout=0) for _ in jobs] == jobs

    def test_take_timeout_returns_none(self):
        queue = JobQueue()
        assert queue.take(timeout=0.01) is None

    def test_take_wakes_on_submit(self):
        queue = JobQueue()
        got = []
        thread = threading.Thread(
            target=lambda: got.append(queue.take(timeout=5))
        )
        thread.start()
        job = _job()
        queue.submit(job)
        thread.join(timeout=5)
        assert got == [job]


class TestAdmission:
    def test_depth_cap(self):
        queue = JobQueue(max_depth=2)
        queue.submit(_job())
        queue.submit(_job())
        with pytest.raises(AdmissionError, match="queue full"):
            queue.submit(_job())

    def test_drain_closes_admission_and_cancels_queued(self):
        queue = JobQueue()
        queued = [_job(), _job()]
        for job in queued:
            queue.submit(job)
        dropped = queue.drain()
        assert dropped == queued
        assert all(job.state == CANCELLED for job in queued)
        assert queue.closed
        with pytest.raises(AdmissionError, match="draining"):
            queue.submit(_job())
        assert queue.take(timeout=0) is None

    def test_exhausted_service_pool_rejects(self):
        queue = JobQueue(service_spec=BudgetSpec(conflict_allowance=100))
        queue.submit(_job())  # pool has headroom
        queue.absorb({"conflicts_used": 100})
        with pytest.raises(AdmissionError, match="budget exhausted"):
            queue.submit(_job())


class TestCancellation:
    def test_cancel_queued_is_skipped_by_take(self):
        queue = JobQueue()
        first, second = _job(), _job()
        queue.submit(first)
        queue.submit(second)
        assert queue.cancel(first)
        assert queue.take(timeout=0) is second
        assert first.state == CANCELLED

    def test_cancel_running_only_flags(self):
        queue = JobQueue()
        job = _job()
        queue.submit(job)
        assert queue.take(timeout=0) is job
        job.mark_running()
        assert not queue.cancel(job)
        assert job.cancel_requested
        assert job.state == "running"

    def test_depth_ignores_cancelled(self):
        queue = JobQueue()
        job = _job()
        queue.submit(job)
        assert queue.depth == 1
        queue.cancel(job)
        job.mark_cancelled()
        assert queue.depth == 0


class TestBudgetPartitions:
    def test_ungoverned_queue_hands_out_none(self):
        queue = JobQueue()
        assert queue.job_budget_spec(_job()) is None

    def test_a_job_is_handed_the_remaining_pool(self):
        """One job runs at a time, so it gets every remaining conflict;
        the service spec's other knobs pass through."""
        queue = JobQueue(
            service_spec=BudgetSpec(conflict_allowance=100, deadline_s=3.0),
        )
        spec = queue.job_budget_spec(_job())
        assert spec.conflict_allowance == 100
        assert spec.deadline_s == 3.0
        # After absorbing real consumption the next job gets the rest.
        queue.absorb({"conflicts_used": 60})
        assert queue.job_budget_spec(_job()).conflict_allowance == 40

    def test_absorb_is_by_consumption_not_allotment(self):
        """A dead job's unspent allowance returns to the pool for free."""
        queue = JobQueue(service_spec=BudgetSpec(conflict_allowance=100))
        handed_out = queue.job_budget_spec(_job())
        assert handed_out.conflict_allowance == 100
        # The job died after consuming only 5 of its 100.
        queue.absorb({"conflicts_used": 5})
        assert queue.service_budget.remaining_conflicts() == 95

    def test_request_knobs_only_tighten(self):
        queue = JobQueue(
            service_spec=BudgetSpec(conflict_allowance=100, deadline_s=10.0),
        )
        tight = queue.job_budget_spec(
            _job(deadline_s=2.0, conflicts=30)
        )
        assert tight.deadline_s == 2.0
        assert tight.conflict_allowance == 30
        loose = queue.job_budget_spec(
            _job(deadline_s=60.0, conflicts=500)
        )
        assert loose.deadline_s == 10.0
        assert loose.conflict_allowance == 100

    def test_request_knobs_without_service_spec(self):
        queue = JobQueue()
        spec = queue.job_budget_spec(_job(conflicts=42))
        assert spec is not None
        assert spec.conflict_allowance == 42
        assert spec.deadline_s is None


class TestSubmitStorm:
    """Concurrent submit storms (ISSUE 6 satellite): admission under
    contention must be *deterministic in count* — exactly ``max_depth``
    jobs get in, every other submitter gets the 429-mapped
    :class:`AdmissionError` — and the budget pool must be conserved to
    the integer no matter how absorbs interleave."""

    def test_exactly_max_depth_admitted_under_contention(self):
        queue = JobQueue(max_depth=16)
        threads, per_thread = 8, 8
        barrier = threading.Barrier(threads)
        admitted = []
        rejected = []
        lock = threading.Lock()

        def storm():
            barrier.wait()
            for _ in range(per_thread):
                job = _job()
                try:
                    queue.submit(job)
                except AdmissionError as exc:
                    with lock:
                        rejected.append(exc.reason)
                else:
                    with lock:
                        admitted.append(job)

        workers = [threading.Thread(target=storm) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert len(admitted) == 16
        assert len(rejected) == threads * per_thread - 16
        assert all("queue full" in reason for reason in rejected)
        assert queue.depth == 16
        # Every admitted job is actually drainable — none were dropped.
        drained = [queue.take(timeout=0) for _ in range(16)]
        assert sorted(j.id for j in drained) == sorted(
            j.id for j in admitted
        )

    def test_pool_exactly_conserved_under_concurrent_absorbs(self):
        """remaining == allowance − Σ(absorbed), even with hand-outs and
        absorbs racing: hand-outs never drain the pool, absorbs always
        do, exactly once each."""
        allowance = 100_000
        queue = JobQueue(
            service_spec=BudgetSpec(conflict_allowance=allowance)
        )
        threads, rounds, used_each = 16, 50, 7
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                spec = queue.job_budget_spec(_job())  # hand out a budget
                assert spec.conflict_allowance >= 0
                queue.absorb({"conflicts_used": used_each})

        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        expected = allowance - threads * rounds * used_each
        assert queue.pool_remaining() == expected

    def test_storm_against_a_spent_pool_rejects_everyone(self):
        queue = JobQueue(service_spec=BudgetSpec(conflict_allowance=10))
        queue.absorb({"conflicts_used": 10})
        outcomes = []
        lock = threading.Lock()

        def storm():
            try:
                queue.submit(_job())
            except AdmissionError as exc:
                with lock:
                    outcomes.append(exc.reason)

        workers = [threading.Thread(target=storm) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert len(outcomes) == 8
        assert all("budget exhausted" in reason for reason in outcomes)
        assert queue.pool_remaining() == 0
