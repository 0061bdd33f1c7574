"""The service-layer chaos harness: seeded fleet-level fault campaigns.

This extends the pipeline's seeded fault injector
(:mod:`repro.resilience.faults`) one layer up: instead of corrupting
solver queries, a campaign kills shards mid-job, drops and half-closes
client connections, delays supervisor heartbeats, and corrupts the job
journal's tail — then asserts the fleet's contract held anyway:

- **every job terminates** — nothing is lost in a dead shard's queue or a
  torn journal record;
- **certificates are byte-identical to a serial run** — chaos is
  restricted to :data:`~repro.resilience.faults.SERVICE_SITES`, so the
  *pipeline* under each shard runs fault-free and determinism does the
  rest;
- **no job runs to completion twice** — the journal's content-hash dedup
  is observable in the router's counters.

Shard kills are decided at each job placement (the router consults the
``service.shard`` site with the job just placed, and kills that shard), so
every kill lands mid-job however fast the jobs run.  The other service
sites advance on wall-clock events, so a seed fixes the fault
*distribution*, not an exact schedule (see the discussion in
:mod:`repro.resilience.faults`); campaigns therefore assert invariants,
never event orders.

A campaign drives the router through its Python API rather than HTTP —
deliberately: the ``service.conn`` faults must land on the router's
*dispatch* connections (where retry/failover logic lives), not on the
test's own plumbing.

``LocalShard`` fleets keep a whole campaign in one process, which is what
makes a 25+-seed sweep affordable under pytest; the CI ``chaos-smoke``
job runs the same invariants against real ``ProcessShard`` subprocesses
with ``kill -9``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..resilience.faults import SERVICE_SITES, FaultInjector, fault_at, inject
from .fleet import FleetRouter
from .protocol import SubmitRequest
from .supervisor import LocalShard, ShardSupervisor
from .telemetry import Telemetry


def serial_certificate(case_name: str, kwargs: dict | None = None) -> str:
    """The ground truth: the certificate a serial, fault-free, cache-free
    run produces — what every chaos run must match byte for byte."""
    from .. import casestudies
    from ..logic.automation import verify_program
    from ..parallel.config import configured
    from ..parallel.scheduler import pc_for

    module = getattr(casestudies, case_name)
    with configured(jobs=1):
        case = module.build(**(kwargs or {}))
    report = verify_program(case.frontend.traces, case.specs, pc_for(module))
    return report.proof.to_json()


def corrupt_journal_tail(path, kind: str, seed: int = 0) -> int:
    """Damage the journal the way a crash (or lying disk) would: ``truncate``
    chops the final record mid-line; ``garbage`` overwrites its tail bytes
    with seed-derived junk.  Returns the number of bytes damaged.  Only the
    tail is touched — matching the only damage the append-only + fsync
    discipline admits, and exactly what recovery truncates away."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return 0
    last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
    tail_len = len(data) - last_start
    if tail_len <= 1:
        return 0
    cut = last_start + 1 + (seed % max(1, tail_len - 1))
    if kind == "truncate":
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        return len(data) - cut
    junk = bytes((seed * 31 + i * 7 + 13) % 256 for i in range(len(data) - cut))
    with open(path, "r+b") as handle:
        handle.seek(cut)
        handle.write(junk)
    return len(junk)


class ChaosFleet:
    """A LocalShard fleet tuned for fast kill/restart cycles in-process."""

    def __init__(
        self,
        shards: int = 3,
        journal_path=None,
        telemetry: Telemetry | None = None,
        job_timeout_s: float = 300.0,
    ) -> None:
        self.telemetry = telemetry or Telemetry()

        def factory(_slot, shard_id, _generation, budget_spec):
            return LocalShard(
                shard_id,
                pool_jobs=1,
                block_jobs=1,
                runners=1,
                budget_spec=budget_spec,
            )

        self.supervisor = ShardSupervisor(
            factory,
            shards,
            heartbeat_s=0.05,
            heartbeat_timeout_s=0.5,
            miss_limit=2,
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
            stable_reset_s=5.0,
            telemetry=self.telemetry,
        )
        self.router = FleetRouter(
            self.supervisor,
            journal_path=journal_path,
            telemetry=self.telemetry,
            poll_s=0.02,
            requeue_delay_s=0.05,
            job_timeout_s=job_timeout_s,
            breaker_kwargs={"failure_threshold": 2, "cooldown_s": 0.1,
                            "max_cooldown_s": 2.0},
            client_kwargs={"timeout": 30.0, "connect_timeout": 1.0},
        )

    def __enter__(self) -> "ChaosFleet":
        self.router.start()
        return self

    def __exit__(self, *exc) -> None:
        self.router.stop()

    def submit(self, case: str, kwargs: dict | None = None):
        return self.router.submit(
            SubmitRequest(case=case, kwargs=dict(kwargs or {}))
        )

    def wait_all(self, jobs, timeout_s: float = 300.0) -> None:
        """Block until every job is terminal; raises on the first that
        is not — a *lost* job is the harness's cardinal failure."""
        deadline = time.monotonic() + timeout_s
        for job in jobs:
            while not job.terminal:
                if time.monotonic() >= deadline:
                    raise AssertionError(
                        f"job {job.id} ({job.request.case}) never terminated: "
                        f"state={job.state} shard={job.shard} "
                        f"attempts={job.attempts}"
                    )
                time.sleep(0.02)

    def wait_healed(self, timeout_s: float = 300.0) -> None:
        """Block until every shard is up and answering: the supervisor must
        have noticed each kill and restarted the shard, since a fleet that
        merely routes around its dead has not recovered."""
        deadline = time.monotonic() + timeout_s
        supervisor = self.supervisor

        def answering(shard_id: str) -> bool:
            client = supervisor.handle(shard_id).make_client(
                timeout=1.0, connect_timeout=1.0
            )
            try:
                return bool(client.healthz().get("ok"))
            except Exception:  # noqa: BLE001 — dead or restarting
                return False

        while not all(
            supervisor.is_up(s) and answering(s) for s in supervisor.shard_ids
        ):
            if time.monotonic() >= deadline:
                raise AssertionError(
                    f"fleet never healed: {self.telemetry.snapshot()['counters']}"
                )
            time.sleep(0.02)


@dataclass
class ChaosReport:
    """What one seeded campaign did and whether the contract held."""

    seed: int
    certificates: dict[str, str] = field(default_factory=dict)
    outcomes: dict[str, str] = field(default_factory=dict)
    fault_summary: str = ""
    fault_events: list[tuple[str, str]] = field(default_factory=list)
    shard_kills: int = 0
    journal_damage: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def jobs_executed(self) -> float:
        """Completions actually *run* (journal-served ones excluded)."""
        return self.counters.get("fleet_jobs_completed", 0) - self.counters.get(
            "journal_dedup", 0
        )


def run_campaign(
    seed: int,
    cases,
    shards: int = 3,
    rate: float = 0.12,
    journal_path=None,
    corrupt_tail: str | None = None,
    timeout_s: float = 300.0,
    sites: tuple[str, ...] | None = None,
    max_faults: int | None = None,
) -> ChaosReport:
    """One seeded chaos campaign: submit every case into a LocalShard fleet
    while faults fire, wait for universal termination, and return the
    certificates and counters for the caller's invariant checks.

    ``corrupt_tail`` ("truncate" | "garbage") damages the journal *before*
    the fleet opens it, modelling a crash that tore the previous router's
    final append — the fleet must recover by truncation and still finish
    every journaled job.
    """
    injector = FaultInjector(
        seed=seed,
        rate=rate,
        sites=sites if sites is not None else SERVICE_SITES,
        max_faults=max_faults,
    )
    report = ChaosReport(seed=seed)
    if journal_path is not None and os.path.exists(journal_path):
        kind = corrupt_tail
        if kind is None:
            # Seed-driven: the ``service.journal`` site decides whether the
            # previous router's final append was torn ("truncate") or the
            # disk wrote junk ("garbage").
            with inject(injector):
                kind = fault_at("service.journal")
        if kind:
            report.journal_damage = corrupt_journal_tail(
                journal_path, kind, seed=seed
            )
    fleet = ChaosFleet(shards=shards, journal_path=journal_path)
    with inject(injector):
        with fleet:
            jobs = [fleet.submit(case) for case in cases]
            fleet.wait_all(jobs, timeout_s=timeout_s)
            # Also drain any journal-replayed jobs from a previous life.
            fleet.wait_all(
                list(fleet.router.jobs.values()), timeout_s=timeout_s
            )
            fleet.wait_healed(timeout_s=timeout_s)
            for job in jobs:
                if job.state == "done":
                    report.certificates[job.request.case] = job.result[
                        "certificate"
                    ]
                report.outcomes[job.request.case] = job.state
            snapshot = fleet.telemetry.snapshot()
            report.counters = dict(snapshot["counters"])
        report.fault_summary = injector.summary()
        report.fault_events = [(e.site, e.kind) for e in injector.log]
        report.shard_kills = int(report.counters.get("shard_kills", 0))
    return report
