"""Job execution: the bridge from queue to the governed pipeline.

A :class:`JobRunner` is one daemon-side worker thread.  It pulls jobs off
the :class:`~repro.service.queue.JobQueue`, runs them through
:func:`~repro.parallel.scheduler.verify_case_parallel` against the
*resident* worker pool, cache, and batcher (this is where the daemon's
whole advantage lives — nothing is rebuilt per job), re-checks the proof
with the independent checker, and publishes the encoded result.

Budget round-trip: the job's partitioned
:class:`~repro.resilience.budget.BudgetSpec` comes from the queue
(:meth:`~repro.service.queue.JobQueue.job_budget_spec`), and whatever the
run *actually consumed* — reported by the merged run budget — is absorbed
back into the service pool on completion.  A job whose workers died
reports only the consumption of the workers that finished; the lost
shares return to the pool untouched.
"""

from __future__ import annotations

import threading
import time
import traceback

from .protocol import JobRecord, encode_result


class JobRunner:
    """One job-execution thread of the daemon."""

    def __init__(self, service, name: str) -> None:
        self.service = service
        self.name = name
        self._thread = threading.Thread(
            target=self._loop, name=name, daemon=True
        )
        self._stop = threading.Event()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # -- the loop -------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.service.queue.take(timeout=0.2)
            if job is None:
                if self.service.queue.closed:
                    return
                continue
            if job.cancel_requested:
                job.mark_cancelled("cancelled while queued")
                continue
            self.run_job(job)

    # -- one job --------------------------------------------------------------

    def run_job(self, job: JobRecord) -> None:
        if job.request.case.startswith("cosim:"):
            self.run_cosim_job(job)
            return
        from ..logic.checker import CheckFailure, check_proof
        from ..parallel.scheduler import verify_case_parallel

        service = self.service
        telemetry = service.telemetry
        telemetry.inc("jobs_started")
        telemetry.gauge("queue_depth", service.queue.depth)
        telemetry.log(
            "job-started", job=job.id, case=job.request.case, runner=self.name
        )
        job.mark_running()
        spec = service.queue.job_budget_spec(job)
        t0 = time.perf_counter()

        def built(case) -> None:
            job.add_event(
                "build-done", instrs=case.asm_line_count, blocks=len(case.specs)
            )

        def progress(addr: int, outcome: str) -> None:
            job.add_event("block-done", addr=f"0x{addr:x}", outcome=outcome)

        try:
            case, report = verify_case_parallel(
                job.request.case,
                dict(job.request.kwargs),
                jobs=service.block_jobs,
                cache=service.cache,
                budget_spec=spec,
                pool=service.pool,
                batcher=service.batcher,
                progress=progress,
                on_built=built,
            )
            try:
                check = check_proof(report.proof, expected_blocks=set(case.specs))
                checker_line = str(check)
            except CheckFailure as exc:
                # An invalid certificate can never be served as done/ok.
                job.mark_failed(f"certificate re-check failed: {exc}")
                telemetry.inc("jobs_failed")
                telemetry.log("job-failed", job=job.id, error=str(exc))
                return
            result = encode_result(case, report, checker_line)
        except Exception as exc:  # noqa: BLE001 — runner must survive any job
            detail = f"{type(exc).__name__}: {exc}"
            job.mark_failed(detail)
            telemetry.inc("jobs_failed")
            telemetry.log(
                "job-failed",
                job=job.id,
                error=detail,
                trace=traceback.format_exc(limit=4),
            )
            return
        finally:
            if service.cache is not None:
                service.cache.flush()

        # Fold consumption back into the service pool and telemetry.
        budget_snapshot = (
            report.budget.snapshot() if report.budget is not None else None
        )
        service.queue.absorb(budget_snapshot)
        elapsed = time.perf_counter() - t0
        telemetry.observe_latency(elapsed)
        telemetry.inc("jobs_completed")
        telemetry.inc(f"outcome_{report.outcome}")
        telemetry.counters.add(report.solver_stats, "solver_")
        telemetry.counters.add(report.cache_stats, "cache_")
        service.refresh_gauges()
        job.mark_done(result)
        if job.latency_s is not None:
            telemetry.observe_queue_latency(job.latency_s, job.request.priority)
        telemetry.log(
            "job-done",
            job=job.id,
            case=job.request.case,
            outcome=report.outcome,
            seconds=round(elapsed, 3),
        )

    # -- co-simulation jobs ---------------------------------------------------

    def run_cosim_job(self, job: JobRecord) -> None:
        """One differential co-simulation batch (``cosim:<arch>``).

        These are bulk soak work: no SMT pipeline, no proof checker — just
        the generator + lockstep driver.  Divergence counts feed the
        standing correctness ratchet; the per-priority latency reservoirs
        are what the starvation tests read.
        """
        from ..cosim.driver import run_service_batch

        service = self.service
        telemetry = service.telemetry
        telemetry.inc("jobs_started")
        telemetry.gauge("queue_depth", service.queue.depth)
        telemetry.log(
            "job-started", job=job.id, case=job.request.case, runner=self.name
        )
        job.mark_running()
        t0 = time.perf_counter()
        try:
            arch_name = job.request.case.split(":", 1)[1]
            payload = run_service_batch(arch_name, **dict(job.request.kwargs))
        except Exception as exc:  # noqa: BLE001 — runner must survive any job
            detail = f"{type(exc).__name__}: {exc}"
            job.mark_failed(detail)
            telemetry.inc("jobs_failed")
            telemetry.log(
                "job-failed",
                job=job.id,
                error=detail,
                trace=traceback.format_exc(limit=4),
            )
            return
        elapsed = time.perf_counter() - t0
        telemetry.observe_latency(elapsed)
        telemetry.inc("jobs_completed")
        telemetry.inc(f"outcome_{payload['outcome']}")
        telemetry.inc("cosim_cases", payload["cases"])
        telemetry.inc("cosim_instructions", payload["instructions"])
        telemetry.inc("cosim_divergences", len(payload["divergences"]))
        job.mark_done(payload)
        if job.latency_s is not None:
            telemetry.observe_queue_latency(job.latency_s, job.request.priority)
        telemetry.log(
            "job-done",
            job=job.id,
            case=job.request.case,
            outcome=payload["outcome"],
            seconds=round(elapsed, 3),
        )
