"""The service wire protocol: jobs, states, events, results.

Everything here is plain JSON-able data: nothing term- or model-shaped
crosses the socket.  A verification *result* is the full
governed report (outcome lattice verdicts, statistics) plus the proof
certificate exactly as :meth:`repro.logic.proof.Proof.to_json` prints it,
so a client can byte-compare a daemon run against a serial CLI run.

Job lifecycle::

    queued ──> running ──> done
       │           └─────> failed          (infrastructure error)
       └─────────────────> cancelled       (before it started)

``done`` covers every *governed* outcome — a ``done`` job's report may
still say ``unknown`` or ``failed`` on the outcome lattice.  The job-state
``failed`` is reserved for infrastructure problems (the runner itself
crashed); governance guarantees those are rare.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED_STATE = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED_STATE, CANCELLED)
TERMINAL_STATES = (DONE, FAILED_STATE, CANCELLED)

#: Priority classes, best first.  The queue is strict-priority with FIFO
#: within a class; admission control may reject ``bulk`` first under load.
PRIORITIES = ("interactive", "batch", "bulk")

_ids = itertools.count(1)


def _fresh_job_id() -> str:
    return f"job-{next(_ids):06d}"


class AdmissionError(Exception):
    """A job was refused at the door; ``reason`` is wire-friendly."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


def check_case(case: str) -> None:
    """Admit only a case study the pipeline knows: a name in
    :data:`repro.cases.CASE_STUDIES`, or ``cosim:<arch>`` for a registered
    architecture.  Raises :class:`AdmissionError` otherwise.  Both tables
    are plain data, so a router that admits jobs loads no case module,
    architecture model or co-simulation code."""
    if case.startswith("cosim:"):
        from ..arch import registry

        known = case.split(":", 1)[1] in registry.names()
    else:
        from ..cases import CASE_STUDIES

        known = case in CASE_STUDIES
    if not known:
        raise AdmissionError(f"unknown case study {case!r}")


def parse_events_query(query: dict) -> tuple[int, float, bool]:
    """``(since, wait_s, terminal)`` from a ``/jobs/<id>/events`` query.

    ``since`` is how many events the client has already seen and ``wait``
    the long-poll allowance in seconds, capped at 30; both default to 0.
    ``until=terminal`` makes the long-poll answer only at a terminal
    state (or when ``wait`` runs out) rather than at the next event; the
    default is ``until=event``.  Raises ``ValueError`` naming the
    parameter that is malformed.
    """
    since = query.get("since") or "0"
    wait = query.get("wait") or "0"
    until = query.get("until") or "event"
    if until not in ("event", "terminal"):
        raise ValueError(f"'until' must be 'event' or 'terminal', got {until!r}")
    try:
        since_n = int(since)
    except ValueError:
        raise ValueError(f"'since' must be an integer, got {since!r}") from None
    try:
        wait_s = float(wait)
    except ValueError:
        raise ValueError(f"'wait' must be a number, got {wait!r}") from None
    return since_n, min(30.0, wait_s), until == "terminal"


@dataclass(frozen=True)
class SubmitRequest:
    """A verification request: one case study build + governed verify.

    ``deadline_s``/``conflicts`` tighten (never widen) the per-job budget
    the server derives from its service-wide pool.
    """

    case: str
    kwargs: dict = field(default_factory=dict)
    priority: str = "batch"
    deadline_s: float | None = None
    conflicts: int | None = None

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "kwargs": dict(self.kwargs),
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "conflicts": self.conflicts,
        }

    @staticmethod
    def from_json(payload: dict) -> "SubmitRequest":
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        case = payload.get("case")
        if not isinstance(case, str) or not case:
            raise ValueError("'case' must be a non-empty string")
        kwargs = payload.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise ValueError("'kwargs' must be an object")
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            message = "'deadline_s' must be a finite number"
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise ValueError(message) from None
            if not math.isfinite(deadline_s):
                raise ValueError(message)
        conflicts = payload.get("conflicts")
        if conflicts is not None and (
            not isinstance(conflicts, int) or isinstance(conflicts, bool)
        ):
            raise ValueError("'conflicts' must be an integer")
        return SubmitRequest(
            case=case,
            kwargs=dict(kwargs),
            priority=payload.get("priority", "batch"),
            deadline_s=deadline_s,
            conflicts=conflicts,
        )


@dataclass(frozen=True)
class JobEvent:
    """One progress event; ``seq`` is dense per job, so clients resume
    streams with ``?since=<last seq>`` and never miss or repeat one."""

    seq: int
    ts: float
    kind: str  # queued | started | build-done | block-done | done | failed | cancelled
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind, "data": self.data}


def _wake(future) -> None:
    if not future.done():
        future.set_result(None)


@dataclass
class JobRecord:
    """Server-side state of one job (thread-safe where it must be).

    The runner thread appends events and flips states while the asyncio front
    end reads snapshots; every mutation goes through the record's lock.
    """

    request: SubmitRequest
    id: str = field(default_factory=_fresh_job_id)
    state: str = QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    result: dict | None = None
    cancel_requested: bool = False

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[JobEvent] = []
        #: ``(loop, future, terminal)`` of each waiting long-poll; one with
        #: ``terminal`` set waits for a terminal state, not the next event.
        self._waiters: list[tuple] = []
        self.add_event("queued", case=self.request.case)

    # -- events -------------------------------------------------------------

    def add_event(self, kind: str, **data) -> JobEvent:
        with self._lock:
            return self._append(kind, data)

    def _append(self, kind: str, data: dict) -> JobEvent:
        """Record an event and wake every waiting long-poll; the caller
        holds the lock."""
        event = JobEvent(len(self._events), time.time(), kind, data)
        self._events.append(event)
        terminal = self.state in TERMINAL_STATES
        waiting = []
        for loop, waiter, until_terminal in self._waiters:
            if until_terminal and not terminal:
                waiting.append((loop, waiter, until_terminal))
                continue
            try:
                loop.call_soon_threadsafe(_wake, waiter)
            except RuntimeError:  # that poll's event loop has closed
                pass
        self._waiters = waiting
        return event

    def events_since(self, seq: int) -> list[JobEvent]:
        return self.poll(seq)[1]

    def poll(self, seq: int) -> tuple[str, list[JobEvent]]:
        """The state and the events from ``seq`` on, read together: a
        terminal state's own event is always among the events after it."""
        with self._lock:
            return self.state, self._events[max(0, seq):]

    def waiter(self, seq: int, loop, terminal: bool = False):
        """A future on ``loop`` that resolves at the job's next event (with
        ``terminal``, at its terminal transition), or ``None`` when there
        is no need to wait: the job is terminal, or, without ``terminal``,
        it already has events from ``seq`` on.  Release it with
        :meth:`drop_waiter`."""
        with self._lock:
            if self.state in TERMINAL_STATES or (
                not terminal and len(self._events) > seq
            ):
                return None
            future = loop.create_future()
            self._waiters.append((loop, future, terminal))
            return future

    def drop_waiter(self, future) -> None:
        with self._lock:
            self._waiters = [w for w in self._waiters if w[1] is not future]

    @property
    def num_events(self) -> int:
        with self._lock:
            return len(self._events)

    # -- state transitions ---------------------------------------------------
    #
    # Each transition records its event under the same lock hold as the
    # state, so :meth:`poll` never sees one without the other.

    def mark_running(self) -> None:
        with self._lock:
            self.state = RUNNING
            self.started = time.time()
            self._append("started", {})

    def mark_done(self, result: dict) -> None:
        with self._lock:
            self.state = DONE
            self.finished = time.time()
            self.result = result
            self._append("done", {"outcome": result.get("outcome")})

    def mark_failed(self, error: str) -> None:
        with self._lock:
            self.state = FAILED_STATE
            self.finished = time.time()
            self.error = error
            self._append("failed", {"error": error})

    def mark_cancelled(self, reason: str = "") -> None:
        with self._lock:
            self.state = CANCELLED
            self.finished = time.time()
            if reason:
                self.error = reason
            self._append("cancelled", {"reason": reason})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_s(self) -> float | None:
        if self.finished is None:
            return None
        return self.finished - self.created

    # -- wire form ----------------------------------------------------------

    def snapshot(self) -> dict:
        """The status view: everything but the (potentially large) result."""
        with self._lock:
            return {
                "id": self.id,
                "case": self.request.case,
                "kwargs": dict(self.request.kwargs),
                "priority": self.request.priority,
                "state": self.state,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "error": self.error,
                "events": len(self._events),
                "outcome": (self.result or {}).get("outcome"),
            }


def encode_result(case, report, checker_line: str) -> dict:
    """The JSON result payload for a finished governed run.

    ``certificate`` is the proof's canonical JSON text, unmodified — the
    byte-identity anchor against ``tools/verify --cert-dir``.
    """
    blocks = {
        f"0x{addr:x}": {
            "outcome": outcome.outcome,
            "reason": outcome.reason,
            "residuals": outcome.residuals,
        }
        for addr, outcome in sorted(report.blocks.items())
    }
    budget = report.budget.snapshot() if report.budget is not None else None
    return {
        "outcome": report.outcome,
        "ok": report.ok,
        "blocks": blocks,
        "certificate": report.proof.to_json(),
        "checker": checker_line,
        "solver_stats": dict(report.solver_stats),
        "cache_stats": dict(report.cache_stats),
        "budget": budget,
        "instrs": case.asm_line_count,
        "itl_events": case.frontend.total_events,
    }
