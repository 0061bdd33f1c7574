"""The job queue: priorities, admission control, cancellation.

Admission is governed by :mod:`repro.resilience` budgets, the same
machinery that governs a single run: the daemon may be given a
*service-wide* :class:`~repro.resilience.budget.BudgetSpec` whose conflict
allowance is a consumable pool.  The daemon runs one job at a time, so
each job is handed the whole remaining pool, and the job's actual
consumption is absorbed back when it completes — so the pool drains by
what was *used*, not by what was handed out, and a dead job's unconsumed
allowance returns to the pool for free.  When the pool is spent, new jobs
are rejected at submission time (fail-fast) rather than admitted to
starve.

The queue itself is strict-priority (``interactive`` > ``batch`` >
``bulk``) with FIFO order within a class, plus a depth cap.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time

from ..resilience import Budget, BudgetSpec
from .protocol import PRIORITIES, QUEUED, AdmissionError, JobRecord


class JobQueue:
    """Priority queue + admission control for :class:`JobRecord` jobs."""

    def __init__(
        self,
        max_depth: int = 64,
        service_spec: BudgetSpec | None = None,
    ) -> None:
        self.max_depth = max_depth
        #: Live consumption against the service-wide pool (None = ungoverned).
        self.service_budget = (
            Budget(service_spec) if service_spec is not None else None
        )
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, JobRecord]] = []
        self._seq = itertools.count()
        self._closed = False

    # -- admission -----------------------------------------------------------

    def submit(self, job: JobRecord) -> None:
        """Admit a job or raise :class:`AdmissionError` (queue full, pool
        spent, or the queue is draining)."""
        with self._lock:
            if self._closed:
                raise AdmissionError("service is draining")
            if len(self._heap) >= self.max_depth:
                raise AdmissionError(f"queue full ({self.max_depth} jobs)")
            if (
                self.service_budget is not None
                and (self.service_budget.remaining_conflicts() or 0) <= 0
            ):
                raise AdmissionError("service conflict budget exhausted")
            rank = PRIORITIES.index(job.request.priority)
            heapq.heappush(self._heap, (rank, next(self._seq), job))
            self._available.notify()

    # -- per-job budgets -------------------------------------------------------

    def job_budget_spec(self, job: JobRecord) -> BudgetSpec | None:
        """The budget handed to one admitted job: the service spec with the
        pool's *remaining* conflicts.  A request's own
        ``deadline_s``/``conflicts`` can only tighten the result.
        """
        from dataclasses import replace

        spec: BudgetSpec | None = None
        if self.service_budget is not None:
            spec = self.service_budget.spec
            remaining = self.service_budget.remaining_conflicts()
            if remaining is not None:
                spec = replace(spec, conflict_allowance=remaining)
        request = job.request
        if request.deadline_s is not None or request.conflicts is not None:
            spec = spec or BudgetSpec()
            deadline = spec.deadline_s
            if request.deadline_s is not None:
                deadline = (
                    request.deadline_s
                    if deadline is None
                    else min(deadline, request.deadline_s)
                )
            conflicts = spec.conflict_allowance
            if request.conflicts is not None:
                conflicts = (
                    request.conflicts
                    if conflicts is None
                    else min(conflicts, request.conflicts)
                )
            spec = replace(spec, deadline_s=deadline, conflict_allowance=conflicts)
        return spec

    def absorb(self, snapshot: dict | None) -> None:
        """Fold a completed job's budget consumption back into the pool."""
        if snapshot and self.service_budget is not None:
            with self._lock:  # ``+=`` on the pool is not atomic
                self.service_budget.absorb(snapshot)

    def pool_remaining(self) -> int | None:
        """The service pool's remaining conflict total (None = ungoverned).

        The pool drains only by *absorbed* consumption, never by handed-out
        budgets, so this is exactly ``allowance - Σ absorbed`` — the
        conservation quantity the admission-storm and shard-death tests
        assert on.
        """
        if self.service_budget is None:
            return None
        return self.service_budget.remaining_conflicts()

    # -- consumption ----------------------------------------------------------

    def take(self, timeout: float | None = None) -> JobRecord | None:
        """Pop the best queued job, skipping ones cancelled while queued."""
        with self._lock:
            deadline = None
            while True:
                while self._heap:
                    _rank, _seq, job = heapq.heappop(self._heap)
                    if job.state == QUEUED and not job.cancel_requested:
                        return job
                    if job.state == QUEUED:
                        job.mark_cancelled("cancelled while queued")
                if self._closed:
                    return None
                if timeout is not None:
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                        remaining = timeout
                    else:
                        remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._available.wait(timeout=remaining)
                else:
                    self._available.wait()

    def cancel(self, job: JobRecord) -> bool:
        """Request cancellation; returns True when the job was still queued
        (it will be skipped by :meth:`take` and marked cancelled).  A
        running job only gets the request flag — the runner drains it."""
        with self._lock:
            job.cancel_requested = True
            return job.state == QUEUED

    # -- lifecycle ------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return sum(1 for _r, _s, j in self._heap if j.state == QUEUED)

    def drain(self) -> list[JobRecord]:
        """Close admission and return (cancelling) every queued job."""
        with self._lock:
            self._closed = True
            dropped = []
            while self._heap:
                _rank, _seq, job = heapq.heappop(self._heap)
                if job.state == QUEUED:
                    job.mark_cancelled("service draining")
                    dropped.append(job)
            self._available.notify_all()
            return dropped

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
