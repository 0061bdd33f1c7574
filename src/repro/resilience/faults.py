"""Deterministic fault injection.

The fail-safe property of the pipeline — injected faults may downgrade an
outcome but can never manufacture a spurious ``verified`` — is proved by a
seeded test harness, which needs faults that are *deterministic*: the same
seed must produce the same fault schedule regardless of timing, dict
ordering or process restarts.  Decisions are therefore pure functions of
``(seed, site, per-site counter)`` via a cryptographic hash, not of a
shared PRNG stream whose consumption order would couple unrelated sites.

Injection sites (each a cheap no-op when no injector is active):

- ``solver.check``  — force a query result to ``unknown``;
- ``solver.cache``  — drop the cached entry for the queried key (forced miss);
- ``sat.solve``     — make the CDCL core give up as if its conflict budget hit;
- ``bitblast``      — raise a :class:`TransientFault` while encoding to CNF;
- ``executor.fork`` — pretend a decidable branch is undecided (fork both
  ways), or raise a :class:`TransientFault` mid-path.

Every kind is downgrade-only by construction: ``unknown`` where the truth
is SAT/UNSAT weakens what callers may conclude, a cache drop forces a
recomputation of the same answer, and transients either retry to the same
result or surface as ``unknown``.

The **service-layer** sites extend the same machinery to the verification
fleet (:mod:`repro.service.fleet`):

- ``service.conn``      — drop or half-close a client connection
  (consulted inside :class:`~repro.service.client.ServiceClient`, so every
  retry/failover path is reachable deterministically);
- ``service.shard``     — kill a backend shard abruptly mid-job
  (consulted by the fleet router as it places each job, and aimed at
  the shard that job was placed on);
- ``service.heartbeat`` — delay a supervisor heartbeat so it counts as a
  miss;
- ``service.journal``   — corrupt the tail record of the job journal
  (exercising truncate-on-open recovery).

Pipeline sites keep their strict schedule-determinism guarantee (pure
function of ``(seed, site, counter)``).  Service sites are decided by the
same arithmetic, but their per-site counters advance on wall-clock-driven
events (heartbeats, connection attempts, and job placements, whose number
depends on retries), so two runs of the same seed share the fault
*distribution* rather than an identical schedule; the
chaos harness therefore asserts invariants (every job terminates,
certificates byte-identical to serial, no double execution), never exact
event orders.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass


class TransientFault(Exception):
    """An injected (or genuinely transient) error that callers may retry a
    bounded number of times before degrading to ``unknown``."""


#: site -> fault kinds it can produce
SITE_KINDS: dict[str, tuple[str, ...]] = {
    "solver.check": ("unknown",),
    "solver.cache": ("drop",),
    "sat.solve": ("unknown",),
    "bitblast": ("transient",),
    "executor.fork": ("unknown", "transient"),
    # Service layer (the fleet chaos harness).
    "service.conn": ("drop", "halfclose"),
    "service.shard": ("kill",),
    "service.heartbeat": ("delay",),
    "service.journal": ("truncate", "garbage"),
}

#: The service-layer subset: chaos harnesses restrict their injectors to
#: these so the *pipeline* stays fault-free and certificates stay
#: byte-identical to a serial run.
SERVICE_SITES = tuple(s for s in SITE_KINDS if s.startswith("service."))

SITES = tuple(SITE_KINDS)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    site: str
    kind: str
    index: int  # per-site decision counter at fire time


class FaultInjector:
    """Seeded, deterministic fault schedule.

    ``rate`` is the per-decision firing probability (hash-derived, so the
    schedule is a pure function of the seed).  ``sites`` restricts firing
    to a subset of sites; decisions are still *counted* at every site so
    restricting the site set never perturbs the schedule at other sites.
    ``max_faults`` bounds the total number of injected faults.
    """

    def __init__(
        self,
        seed: int,
        rate: float = 0.05,
        sites: tuple[str, ...] | None = None,
        max_faults: int | None = None,
    ) -> None:
        for site in sites or ():
            if site not in SITE_KINDS:
                raise ValueError(f"unknown fault site {site!r}")
        self.seed = seed
        self.rate = rate
        self.sites = tuple(sites) if sites is not None else None
        self.max_faults = max_faults
        self.counters: dict[str, int] = {}
        self.log: list[FaultEvent] = []

    def _digest(self, site: str, index: int) -> bytes:
        payload = f"{self.seed}:{site}:{index}".encode()
        return hashlib.sha256(payload).digest()

    def decide(self, site: str) -> str | None:
        """Should a fault fire at this site now?  Returns the fault kind or
        ``None``; advances the site's decision counter either way."""
        if site not in SITE_KINDS:
            raise ValueError(f"unknown fault site {site!r}")
        index = self.counters.get(site, 0)
        self.counters[site] = index + 1
        if self.sites is not None and site not in self.sites:
            return None
        if self.max_faults is not None and len(self.log) >= self.max_faults:
            return None
        digest = self._digest(site, index)
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if draw >= self.rate:
            return None
        kinds = SITE_KINDS[site]
        kind = kinds[digest[8] % len(kinds)]
        self.log.append(FaultEvent(site, kind, index))
        return kind

    def summary(self) -> str:
        if not self.log:
            return "no faults injected"
        per_site: dict[str, int] = {}
        for event in self.log:
            key = f"{event.site}:{event.kind}"
            per_site[key] = per_site.get(key, 0) + 1
        parts = ", ".join(f"{k}×{v}" for k, v in sorted(per_site.items()))
        return f"{len(self.log)} faults injected [{parts}]"


_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    return _ACTIVE


def fault_at(site: str) -> str | None:
    """The injection-point hook: ask the active injector (if any) whether a
    fault fires at ``site``.  Inlined into hot paths, so the inactive case
    is a single global read."""
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.decide(site)


@contextmanager
def inject(injector: FaultInjector):
    """Activate ``injector`` for the duration of the block (re-entrant:
    restores whatever was active before)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
