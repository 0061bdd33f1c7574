"""The verification daemon: an asyncio front end over resident state.

The service owns exactly one of each warm resource — an optional
:class:`~repro.cache.DiskCache` (the trace log, this process's shared
handle on its root) and a :class:`~repro.service.batcher.KeptTraces` map —
and one :class:`~repro.service.runner.JobRunner` thread that executes
jobs against them, one at a time.  Every pipeline stage is CPU-bound Python, so a
second runner thread would share the interpreter lock and add no
throughput; a fleet scales by shards (:mod:`~repro.service.supervisor`).
The asyncio layer is deliberately thin: parse a request, touch the
(thread-safe) job table/queue, serialise JSON.  All heavy work happens in
the runner thread; the event loop never blocks on a solver.

The HTTP surface and its request bounds live in :mod:`~repro.service.http`;
this class supplies the job table behind them.
"""

from __future__ import annotations

import asyncio
import threading

from .http import HttpFrontEnd
from .protocol import AdmissionError, JobRecord, SubmitRequest, check_case
from .queue import JobQueue
from .telemetry import Telemetry


class VerificationService(HttpFrontEnd):
    """Resident daemon state behind the shared HTTP front end."""

    def __init__(
        self,
        cache_dir: str | None = None,
        max_queue: int = 64,
        service_spec=None,
        telemetry: Telemetry | None = None,
        shard_id: str | None = None,
    ) -> None:
        from ..cache import open_cache
        from .batcher import KeptTraces
        from .runner import JobRunner

        self.telemetry = telemetry or Telemetry()
        #: Optional fleet identity: reported on /healthz so a supervisor's
        #: heartbeat can confirm it reached the shard it meant to.
        self.shard_id = shard_id
        self.cache = open_cache(cache_dir) if cache_dir else None
        self.kept_traces = KeptTraces(telemetry=self.telemetry)
        self.queue = JobQueue(max_depth=max_queue, service_spec=service_spec)
        self.jobs: dict[str, JobRecord] = {}
        self._jobs_lock = threading.Lock()
        self._runner = JobRunner(self)
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._runner.start()
        self._started = True
        self.telemetry.log(
            "service-started",
            cache=str(self.cache.root) if self.cache else None,
        )

    def stop(self, abort: bool = False) -> None:
        """Drain and release everything.

        ``abort=False`` (the default) finishes running jobs completely;
        ``abort=True`` additionally requests the cooperative shutdown
        event, so in-flight jobs finish only their current blocks and
        report the rest ``unknown`` — the SIGTERM path.
        """
        if not self._started:
            return
        from ..resilience import request_shutdown, reset_shutdown

        self.queue.drain()
        if abort:
            request_shutdown()
        self._runner.stop()
        self._runner.join(timeout=60)
        if abort:
            reset_shutdown()
        self._started = False
        self.telemetry.log("service-stopped", abort=abort)

    # -- job table -------------------------------------------------------------

    def submit(self, request: SubmitRequest) -> JobRecord:
        check_case(request.case)
        job = JobRecord(request)
        with self._jobs_lock:
            self.jobs[job.id] = job
        try:
            self.queue.submit(job)
        except AdmissionError:
            with self._jobs_lock:
                del self.jobs[job.id]
            self.telemetry.inc("jobs_rejected")
            raise
        self.telemetry.inc("jobs_submitted")
        self.telemetry.gauge("queue_depth", self.queue.depth)
        self.telemetry.log(
            "job-submitted",
            job=job.id,
            case=request.case,
            priority=request.priority,
        )
        return job

    def job(self, job_id: str) -> JobRecord | None:
        with self._jobs_lock:
            return self.jobs.get(job_id)

    def job_snapshots(self) -> list[dict]:
        with self._jobs_lock:
            records = list(self.jobs.values())
        return [record.snapshot() for record in records]

    def cancel(self, job: JobRecord) -> tuple[bool, str | None]:
        was_queued = self.queue.cancel(job)
        if was_queued:
            self.telemetry.inc("jobs_cancelled")
            return True, None
        return False, "running jobs drain; queued jobs cancel immediately"

    # -- front-end hooks -------------------------------------------------------

    def health(self) -> dict:
        with self._jobs_lock:
            inflight = sum(1 for j in self.jobs.values() if j.state == "running")
        return {"ok": True, "queue_depth": self.queue.depth,
                "inflight": inflight, "shard": self.shard_id}

    def refresh_gauges(self) -> None:
        """Re-derive observability gauges from resident state.

        Called on every /metrics render so static-analysis rejections are
        visible even between jobs: the disk handle's full counter snapshot
        (including ``wellformed_rejects`` and ``corrupt_entries`` — the
        ill-formed-entry evictions) becomes ``disk_*`` gauges, and the
        process-global ISA-spec validator counters become ``isaspec_*``.
        """
        from ..analysis.isaspec import isaspec_stats

        if self.cache is not None:
            for key, value in self.cache.stats.snapshot().items():
                self.telemetry.gauge(f"disk_{key}", value)
        for key, value in isaspec_stats().items():
            self.telemetry.gauge(f"isaspec_{key}", value)

    async def after_close(self, mode: str) -> None:
        if mode == "crash":
            # Simulated crash (chaos harness, in-process shards): the
            # listener is gone and the runner thread is told to stop, but
            # nothing drains, flushes, or reports — queued and in-flight
            # jobs are simply lost, exactly as a SIGKILL would lose them.
            # In-flight connections are about to be cancelled mid-read by
            # the loop teardown; that is the point, so keep it quiet.
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, _ctx: None
            )
            self._runner.stop()
            self.telemetry.log("service-crashed")
            return
        await asyncio.to_thread(self.stop, mode == "abort")
