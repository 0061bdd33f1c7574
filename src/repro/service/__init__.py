"""``repro.service`` — the persistent verification daemon.

Every capability of the pipeline (governed verification, the on-disk
trace/SMT cache) is reachable through one-shot CLI runs, but each
invocation pays cold-start for the state the previous run just warmed:
the process-wide SMT verdict LRU and the open cache handle.  This package
keeps that state resident, adds the kept traces, and serves verification
over a local socket:

- :mod:`~repro.service.protocol` — the JSON job model (requests, states,
  events, results) shared by server and client;
- :mod:`~repro.service.queue` — a priority job queue with admission
  control backed by :mod:`repro.resilience` budgets;
- :mod:`~repro.service.batcher` — the cross-job kept traces: every
  successful Isla run is kept by (model, opcode, assumptions) key, and a
  later request for the key is served without running Isla;
- :mod:`~repro.service.runner` — the daemon's one job thread: jobs run one
  at a time through the CLI's driver against the resident state, each job's budget consumption
  absorbed back into the service pool on completion;
- :mod:`~repro.service.telemetry` — service counters (queue depth, trace
  requests, dedup hits, latency percentiles) merged with the solver/cache/
  executor statistics, exported via ``/metrics`` and structured JSON logs;
- :mod:`~repro.service.http` — the one asyncio HTTP front end (submit,
  status, long-polled per-block events, reports, metrics, graceful
  drain) with a bounded request parser that fails closed, shared by the
  daemon and the fleet router;
- :mod:`~repro.service.server` — the daemon's resident state behind it;
- :mod:`~repro.service.client` — a thin stdlib-only client library used
  by ``tools/submit``, with socket timeouts, jittered-backoff retries and
  per-request deadlines;
- :mod:`~repro.service.supervisor` — shard lifecycle: spawn N backend
  daemons (threads or subprocesses), heartbeat them, restart the dead
  with exponential backoff, and reabsorb their budget shares;
- :mod:`~repro.service.breaker` — per-shard circuit breakers
  (closed/open/half-open) between the router and flapping shards;
- :mod:`~repro.service.journal` — the crash-safe job journal: an
  append-only fsync'd WAL with CRC'd records, truncate-on-open tail
  recovery, and content-hash completion dedup;
- :mod:`~repro.service.fleet` — the fleet router: each job placed on
  the healthy shard with the fewest outstanding jobs, failover,
  journal-backed replay, and a fleet-wide HTTP front end speaking the
  single-daemon API.

Importing the package loads the service layer only.  :class:`KeptTraces`
and :class:`VerificationService` drive the proof pipeline, so they load
on first use: a fleet router, which routes jobs but runs none, never
compiles the pipeline.

The service guarantee: results are byte-identical to ``tools/verify`` —
same certificates, same outcome lattice, same fail-safe degradation when
budgets exhaust.  The daemon — and the fleet above it — only changes
*when and where* work happens (deduplicated, sharded, retried, against
warm state), never *what* is computed.
"""

from importlib import import_module

from .breaker import CircuitBreaker
from .client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)
from .fleet import FleetJob, FleetRouter, job_content_hash
from .journal import JobJournal
from .protocol import (
    CANCELLED,
    DONE,
    FAILED_STATE,
    JOB_STATES,
    PRIORITIES,
    QUEUED,
    RUNNING,
    JobEvent,
    JobRecord,
    SubmitRequest,
)
from .queue import AdmissionError, JobQueue
from .supervisor import (
    LocalShard,
    ProcessShard,
    ShardHandle,
    ShardSupervisor,
)
from .telemetry import Telemetry

__all__ = [
    "AdmissionError", "CANCELLED", "CircuitBreaker", "DONE", "FAILED_STATE",
    "FleetJob", "FleetRouter", "JOB_STATES", "JobEvent", "JobJournal",
    "JobQueue", "JobRecord", "KeptTraces", "LocalShard", "PRIORITIES",
    "ProcessShard", "QUEUED", "RUNNING", "ServiceClient", "ServiceError",
    "ServiceTimeout", "ServiceUnavailable", "ShardHandle", "ShardSupervisor",
    "SubmitRequest", "Telemetry", "VerificationService", "job_content_hash",
]

#: Exports that import the proof pipeline, by defining module.
_PIPELINE = {"KeptTraces": "batcher", "VerificationService": "server"}


def __getattr__(name: str):
    if name not in _PIPELINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_PIPELINE[name]}", __name__), name)
