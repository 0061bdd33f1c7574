"""The fleet router: least-loaded placement over supervised shards.

This is the front door of the sharded verification fleet.  One
:class:`FleetRouter` owns:

- a :class:`~repro.service.supervisor.ShardSupervisor` (started and
  stopped with the router) whose shards do all actual verification;
- least-outstanding-jobs placement: the router counts the jobs it has
  placed on each shard and not yet finished, and places each job on the
  healthy shard with the fewest (ties in shard order), so concurrent jobs
  spread across the shards instead of queueing behind each other;
- one :class:`~repro.service.breaker.CircuitBreaker` per shard, tripped
  by dispatch failures and forced open the moment the supervisor declares
  a shard dead;
- an optional crash-safe :class:`~repro.service.journal.JobJournal`:
  every job is journaled *before* its 202 and every completion is
  journaled *with* its result, so a router restart resubmits unfinished
  jobs (``journal_replayed``) and serves already-finished ones from the
  journal without re-running them (``journal_dedup``) — dedup is by
  request content hash, which is sound because verification is
  deterministic: same request, same certificate, bit for bit.

Placement is at-least-once, completion is exactly-once-per-content-hash:
a shard that dies mid-job loses it (the router's long-poll on the job's
events sees the connection die or a 404 from the restarted shard's empty
job table) and the router requeues it elsewhere; the journal's first
``done`` record for a hash wins and every later submit of that hash is
served from it.

The router speaks HTTP through the same front end as a shard
(:mod:`~repro.service.http`); dispatch and watching run on plain threads.
It exposes the same job surface (``/jobs``, ``/jobs/<id>``,
``.../report``, ``.../events``) so
:class:`~repro.service.client.ServiceClient` — and therefore
``tools/submit`` — works against a fleet unchanged, plus ``GET /fleet``
for shard/breaker/journal introspection.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

from ..resilience import fault_at
from . import journal as journal_mod
from .breaker import CircuitBreaker
from .client import ServiceError, ServiceTimeout, ServiceUnavailable
from .http import HttpFrontEnd
from .journal import JobJournal
from .protocol import AdmissionError, JobRecord, SubmitRequest, check_case
from .telemetry import Telemetry


def job_content_hash(case: str, kwargs: dict | None = None) -> str:
    """The canonical identity of a verification request.

    Priority, deadlines, and budgets are deliberately excluded: they
    change *how* a job runs, not *what* it proves, and dedup must treat
    two submissions of the same proof obligation as one.
    """
    body = json.dumps(
        {"case": case, "kwargs": kwargs or {}}, sort_keys=True
    ).encode()
    return hashlib.sha256(body).hexdigest()


_fleet_ids = itertools.count(1)


def _fresh_fleet_id() -> str:
    return f"fleet-{next(_fleet_ids):06d}"


@dataclass
class FleetJob(JobRecord):
    """A router-side job: a :class:`JobRecord` plus placement state."""

    id: str = field(default_factory=_fresh_fleet_id)
    content_hash: str = ""
    shard: str | None = None
    attempts: int = 0
    replayed: bool = False

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap.update(
            shard=self.shard,
            attempts=self.attempts,
            hash=self.content_hash,
            replayed=self.replayed,
        )
        return snap


#: Longest one long-poll of a placed job waits for its terminal state.
#: It bounds how long :meth:`FleetRouter.stop` waits for a dispatcher.
WATCH_WAIT_S = 0.5


class _JobLost(Exception):
    """The placed shard died or forgot the job; it must be requeued."""


class FleetRouter(HttpFrontEnd):
    """Route jobs across supervised shards with journal-backed recovery."""

    def __init__(
        self,
        supervisor,
        journal_path=None,
        telemetry: Telemetry | None = None,
        dispatchers: int | None = None,
        max_queue: int = 256,
        job_timeout_s: float = 600.0,
        requeue_delay_s: float = 0.1,
        breaker_kwargs: dict | None = None,
        client_kwargs: dict | None = None,
    ) -> None:
        self.supervisor = supervisor
        self.telemetry = telemetry or Telemetry()
        self.journal_path = journal_path
        self.journal: JobJournal | None = None
        self.max_queue = max_queue
        self.job_timeout_s = job_timeout_s
        self.requeue_delay_s = requeue_delay_s
        self.breakers = {
            shard_id: CircuitBreaker(**(breaker_kwargs or {}))
            for shard_id in supervisor.shard_ids
        }
        #: Per-request client settings for shard dispatch/polling; short
        #: connect timeouts keep a dead shard from stalling a dispatcher.
        self.client_kwargs = {
            "timeout": 30.0,
            "connect_timeout": 2.0,
            **(client_kwargs or {}),
        }
        supervisor.on_down = self._on_shard_down
        supervisor.on_up = self._on_shard_up
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: (ready_at, tiebreak, job) — a tiny delay heap, kept sorted.
        self._queue: list[tuple[float, int, FleetJob]] = []
        self._tiebreak = itertools.count()
        self.jobs: dict[str, FleetJob] = {}
        self._live_by_hash: dict[str, FleetJob] = {}
        self._completed: dict[str, dict] = {}  # hash -> full result
        #: Per shard: jobs placed there and not yet finished, and jobs
        #: ever placed there.  Both change only under ``self._lock``.
        self._inflight = dict.fromkeys(supervisor.shard_ids, 0)
        self._placed = dict.fromkeys(supervisor.shard_ids, 0)
        self._dispatchers: list[threading.Thread] = []
        self._dispatcher_count = (
            dispatchers
            if dispatchers is not None
            else 2 * len(supervisor.shard_ids)
        )
        self._stop = threading.Event()
        self._started = False

    # -- shard health callbacks (supervisor monitor thread) -------------------

    def _on_shard_down(self, shard_id: str) -> None:
        self.breakers[shard_id].force_open()
        self.telemetry.log("fleet-shard-down", shard=shard_id)

    def _on_shard_up(self, shard_id: str) -> None:
        # A freshly restarted shard gets a clean breaker: the supervisor
        # just health-checked it, which is a better signal than waiting
        # out a cooldown tuned for silent failures.
        self.breakers[shard_id].record_success()
        self.telemetry.log("fleet-shard-up", shard=shard_id)
        with self._ready:
            self._ready.notify_all()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        if self.journal_path is not None:
            self.journal = JobJournal(self.journal_path)
        self.supervisor.start()
        self._stop.clear()
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"fleet-dispatch-{i}",
                daemon=True,
            )
            for i in range(max(1, self._dispatcher_count))
        ]
        for thread in self._dispatchers:
            thread.start()
        self._started = True
        self.telemetry.log(
            "fleet-started",
            shards=len(self.supervisor.shard_ids),
            dispatchers=len(self._dispatchers),
            journal=str(self.journal_path) if self.journal_path else None,
        )
        self._replay_journal()

    def stop(self) -> None:
        if not self._started:
            return
        self._stop.set()
        with self._ready:
            self._ready.notify_all()
        for thread in self._dispatchers:
            thread.join(timeout=30)
        self.supervisor.stop()
        if self.journal is not None:
            self.journal.close()
        self._started = False
        self.telemetry.log("fleet-stopped")

    # -- journal replay --------------------------------------------------------

    def _replay_journal(self) -> None:
        if self.journal is None:
            return
        replay = self.journal.replay()
        for record in replay.completed.values():
            content = record["hash"]
            if content not in self._completed:
                self._completed[content] = record["result"]
        for job_id, record in replay.pending.items():
            request = SubmitRequest(
                case=record["case"],
                kwargs=dict(record.get("kwargs") or {}),
                priority=record.get("priority", "batch"),
            )
            job = FleetJob(
                request=request,
                id=job_id,
                content_hash=record["hash"],
                replayed=True,
            )
            self.telemetry.inc("journal_replayed")
            with self._lock:
                self.jobs[job.id] = job
            result = self._completed.get(job.content_hash)
            if result is not None:
                # A twin already ran to completion: serve the journaled
                # result instead of executing again, and journal the
                # terminal record so the *next* replay skips this job too.
                self._finish_done(job, result, from_journal=True)
                continue
            with self._lock:
                self._live_by_hash.setdefault(job.content_hash, job)
            job.add_event("replayed")
            self._enqueue(job)
        if replay.pending or replay.completed:
            self.telemetry.log(
                "journal-replayed",
                pending=len(replay.pending),
                completed=len(replay.completed),
                truncated_bytes=self.journal.stats["truncated_bytes"],
            )

    # -- submission ------------------------------------------------------------

    def submit(self, request: SubmitRequest) -> FleetJob:
        check_case(request.case)
        content = job_content_hash(request.case, request.kwargs)
        with self._lock:
            result = self._completed.get(content)
            if result is None:
                live = self._live_by_hash.get(content)
                if live is not None:
                    # Single-flight: same proof obligation already in
                    # flight — the caller shares its job record.
                    self.telemetry.inc("fleet_dedup_hits")
                    return live
            queued = sum(
                1 for _t, _n, j in self._queue if j.state == "queued"
            )
            if result is None and queued >= self.max_queue:
                self.telemetry.inc("jobs_rejected")
                raise AdmissionError(f"fleet queue full ({self.max_queue} jobs)")
        job = FleetJob(request=request, content_hash=content)
        if result is not None:
            # Finished in a previous router life (or earlier this one and
            # evicted from live tracking): serve straight from the journal.
            with self._lock:
                self.jobs[job.id] = job
            self.telemetry.inc("fleet_dedup_hits")
            self._finish_done(job, result, from_journal=True)
            return job
        if self.journal is not None:
            self.journal.append(
                journal_mod.ACCEPT,
                job=job.id,
                hash=content,
                case=request.case,
                kwargs=dict(request.kwargs),
                priority=request.priority,
            )
        with self._lock:
            self.jobs[job.id] = job
            self._live_by_hash[content] = job
        self.telemetry.inc("fleet_jobs_submitted")
        self.telemetry.log(
            "fleet-job-submitted", job=job.id, case=request.case, hash=content
        )
        self._enqueue(job)
        return job

    def job(self, job_id: str) -> FleetJob | None:
        with self._lock:
            return self.jobs.get(job_id)

    def job_snapshots(self) -> list[dict]:
        with self._lock:
            records = list(self.jobs.values())
        return [record.snapshot() for record in records]

    def cancel(self, job: FleetJob) -> tuple[bool, str | None]:
        """Cancel a job that has not been placed yet; placed jobs only get
        the request flag (their shard drains them)."""
        with self._lock:
            job.cancel_requested = True
            cancellable = job.state == "queued" and job.shard is None
        if cancellable:
            self._finish_terminal(job, journal_mod.CANCELLED, "cancelled")
            return True, None
        return False, "placed jobs drain on their shard"

    # -- the dispatch queue ----------------------------------------------------

    def _enqueue(self, job: FleetJob, delay_s: float = 0.0) -> None:
        with self._ready:
            bisect.insort(
                self._queue,
                (time.monotonic() + delay_s, next(self._tiebreak), job),
            )
            self._ready.notify()

    def _next_job(self) -> FleetJob | None:
        with self._ready:
            while not self._stop.is_set():
                now = time.monotonic()
                if self._queue and self._queue[0][0] <= now:
                    _ready_at, _n, job = self._queue.pop(0)
                    return job
                wait = 0.2
                if self._queue:
                    wait = min(wait, self._queue[0][0] - now)
                self._ready.wait(timeout=max(0.01, wait))
            return None

    def _dispatch_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                self._dispatch(job)
            except Exception as exc:  # noqa: BLE001 — dispatcher survives
                self.telemetry.inc("fleet_dispatch_errors")
                self.telemetry.log(
                    "fleet-dispatch-error", job=job.id, error=str(exc)
                )
                self._requeue(job, f"dispatcher error: {exc}")

    # -- placement -------------------------------------------------------------

    def _candidates(self) -> list[str]:
        """The up shards, fewest outstanding jobs first, ties in shard
        order (caller holds ``self._lock``)."""
        up = [s for s in self.supervisor.shard_ids if self.supervisor.is_up(s)]
        return sorted(up, key=self._inflight.get)

    def _reserve(self, tried: set[str]) -> str | None:
        """Take a slot on the least-loaded healthy shard not yet tried.

        Choosing and counting happen under one lock hold, so concurrent
        dispatchers never both pick the same idle shard.  Only the chosen
        shard's breaker is asked, so a half-open breaker admits its probe
        for a request that is then really sent."""
        with self._lock:
            for shard_id in self._candidates():
                if shard_id not in tried and self.breakers[shard_id].allow():
                    self._inflight[shard_id] += 1
                    return shard_id
        return None

    def _release(self, shard_id: str) -> None:
        with self._lock:
            self._inflight[shard_id] -= 1

    def _dispatch(self, job: FleetJob) -> None:
        if job.cancel_requested and job.state == "queued":
            self._finish_terminal(job, journal_mod.CANCELLED, "cancelled")
            return
        if job.terminal:
            return
        tried: set[str] = set()
        while (shard_id := self._reserve(tried)) is not None:
            tried.add(shard_id)
            try:
                if self._place(job, shard_id, failover=len(tried) > 1):
                    return
            finally:
                self._release(shard_id)
        self._requeue(
            job, "every candidate shard refused" if tried else "no healthy shard"
        )

    def _place(self, job: FleetJob, shard_id: str, failover: bool) -> bool:
        """Submit ``job`` to ``shard_id`` and see it through there; False
        when the shard refused it, so the next candidate should be tried."""
        request = job.request
        client = self.supervisor.handle(shard_id).make_client(
            **self.client_kwargs
        )
        try:
            remote = client.submit(
                request.case,
                kwargs=dict(request.kwargs) or None,
                priority=request.priority,
                deadline_s=request.deadline_s,
                conflicts=request.conflicts,
            )
        except (ServiceTimeout, ServiceUnavailable) as exc:
            self.breakers[shard_id].record_failure()
            self.telemetry.inc("fleet_submit_failures")
            self.telemetry.log(
                "fleet-submit-failed",
                job=job.id, shard=shard_id, error=str(exc),
            )
            return False
        except ServiceError as exc:
            if exc.status == 429:
                # Shard admission refused (its queue or pool is full): a
                # healthy signal, try the next shard.
                self.telemetry.inc("fleet_submit_overflow")
                return False
            self._finish_terminal(job, journal_mod.FAILED, exc.reason)
            return True
        remote_id = remote["id"]
        if failover:
            self.telemetry.inc("fleet_failovers")
        with self._lock:
            job.shard = shard_id
            job.attempts += 1
            self._placed[shard_id] += 1
        job.add_event("placed", shard=shard_id, remote=remote_id)
        self.telemetry.log(
            "fleet-job-placed", job=job.id, shard=shard_id, remote=remote_id
        )
        if fault_at("service.shard") == "kill":
            # Chaos: the shard dies with this job on it (a no-op unless a
            # fault injector is active).
            self.supervisor.kill_shard(shard_id)
        try:
            result = self._watch(job, shard_id, remote_id, client)
        except _JobLost as lost:
            self.breakers[shard_id].record_failure()
            self.telemetry.inc("fleet_jobs_lost")
            self.telemetry.log(
                "fleet-job-lost", job=job.id, shard=shard_id, reason=str(lost)
            )
            with self._lock:
                job.shard = None
            self._requeue(job, str(lost))
            return True
        except _RemoteFailure as failure:
            self.breakers[shard_id].record_success()  # the shard answered
            self._finish_terminal(job, journal_mod.FAILED, str(failure))
            return True
        except _RouterStopping:
            return True  # journal still holds the accept; replay resumes it
        self.breakers[shard_id].record_success()
        self.supervisor.absorb(result.get("budget"))
        self._finish_done(job, result)
        return True

    def _watch(self, job, shard_id: str, remote_id: str, client) -> dict:
        """Long-poll the placed job until it is terminal, one request per
        job plus one per :data:`WATCH_WAIT_S` of running, and return the
        report the ``done`` reply carries; raises :class:`_JobLost` when
        the shard dies or forgets it."""
        misses = 0
        seq = 0
        while True:
            if self._stop.is_set():
                raise _RouterStopping()
            wait_s = WATCH_WAIT_S
            if self.job_timeout_s is not None:
                left = self.job_timeout_s - (time.time() - job.created)
                if left < 0:
                    raise _RemoteFailure(
                        f"job exceeded fleet timeout ({self.job_timeout_s}s)"
                    )
                wait_s = min(wait_s, left)
            try:
                batch = client.events(
                    remote_id, since=seq, wait_s=wait_s, until_terminal=True
                )
            except (ServiceTimeout, ServiceUnavailable) as exc:
                # Subclass order matters: these ARE ServiceErrors, but they
                # mean "can't reach the shard", not "the shard said no".
                misses += 1
                if misses >= 3 or not self.supervisor.is_up(shard_id):
                    raise _JobLost(f"shard unreachable: {exc}") from exc
                self._stop.wait(self.requeue_delay_s)
                continue
            except ServiceError as exc:
                if exc.status == 404:
                    # The shard restarted with an empty job table.
                    raise _JobLost("shard restarted; job table empty") from exc
                raise _RemoteFailure(exc.reason) from exc
            misses = 0
            events = batch["events"]
            if events:
                seq = events[-1]["seq"] + 1
            state = batch["state"]
            if state == "done":
                return batch["report"]  # a terminal reply carries it
            if state in ("failed", "cancelled"):
                # The terminal event comes in the same reply as its state.
                data = events[-1]["data"] if events else {}
                raise _RemoteFailure(
                    data.get("error") or data.get("reason") or f"job {state}"
                )

    def _requeue(self, job: FleetJob, reason: str) -> None:
        if job.terminal:
            return
        age = time.time() - job.created
        if self.job_timeout_s is not None and age > self.job_timeout_s:
            self._finish_terminal(
                job, journal_mod.FAILED,
                f"undeliverable after {age:.1f}s: {reason}",
            )
            return
        self.telemetry.inc("fleet_jobs_requeued")
        job.add_event("requeued", reason=reason)
        self._enqueue(job, delay_s=self.requeue_delay_s)

    # -- completion ------------------------------------------------------------

    def _finish_done(
        self, job: FleetJob, result: dict, from_journal: bool = False
    ) -> None:
        if self.journal is not None and not from_journal:
            self.journal.append(
                journal_mod.DONE,
                job=job.id,
                hash=job.content_hash,
                result=result,
            )
        elif self.journal is not None:
            # Served from a journaled twin: record the terminal state (by
            # reference, not a second result copy) so replay is quiet.
            self.journal.append(
                journal_mod.DONE, job=job.id, hash=job.content_hash
            )
            self.telemetry.inc("journal_dedup")
        with self._lock:
            self._completed.setdefault(job.content_hash, result)
            if self._live_by_hash.get(job.content_hash) is job:
                del self._live_by_hash[job.content_hash]
        job.mark_done(result)
        self.telemetry.inc("fleet_jobs_completed")
        self.telemetry.observe_latency(job.latency_s or 0.0)
        self.telemetry.log(
            "fleet-job-done",
            job=job.id,
            shard=job.shard,
            outcome=result.get("outcome"),
            from_journal=from_journal,
        )

    def _finish_terminal(self, job: FleetJob, kind: str, reason: str) -> None:
        if self.journal is not None:
            self.journal.append(
                kind, job=job.id, hash=job.content_hash, error=reason
            )
        with self._lock:
            if self._live_by_hash.get(job.content_hash) is job:
                del self._live_by_hash[job.content_hash]
        if kind == journal_mod.CANCELLED:
            job.mark_cancelled(reason)
            self.telemetry.inc("fleet_jobs_cancelled")
        else:
            job.mark_failed(reason)
            self.telemetry.inc("fleet_jobs_failed")
        self.telemetry.log(
            "fleet-job-terminal", job=job.id, kind=kind, reason=reason
        )

    # -- introspection ---------------------------------------------------------

    def fleet_snapshot(self) -> dict:
        shards = []
        for slot_snap in self.supervisor.snapshot():
            shard_id = slot_snap["shard"]
            slot_snap["breaker"] = self.breakers[shard_id].snapshot()
            shards.append(slot_snap)
        with self._lock:
            for slot_snap in shards:
                slot_snap["inflight"] = self._inflight[slot_snap["shard"]]
                slot_snap["placed"] = self._placed[slot_snap["shard"]]
            queued = sum(1 for _t, _n, j in self._queue if not j.terminal)
            states: dict[str, int] = {}
            for record in self.jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
            completed = len(self._completed)
        return {
            "shards": shards,
            "queued": queued,
            "jobs": states,
            "completed_hashes": completed,
            "pool_remaining": self.supervisor.pool_remaining(),
            "journal": (
                self.journal.stats.snapshot()
                if self.journal is not None
                else None
            ),
        }

    # -- front-end hooks -------------------------------------------------------

    def health(self) -> dict:
        up = sum(1 for s in self.supervisor.snapshot() if s["state"] == "up")
        return {"ok": up > 0, "role": "fleet", "shards_up": up,
                "shards": len(self.supervisor.shard_ids)}

    def extra_routes(self) -> dict:
        return {"fleet": self.fleet_snapshot}

    async def after_close(self, mode: str) -> None:
        await asyncio.to_thread(self.stop)


class _RemoteFailure(Exception):
    """The shard answered and the job is terminally failed there."""


class _RouterStopping(Exception):
    """The router is shutting down mid-watch; the journal resumes the job."""
