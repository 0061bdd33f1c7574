"""The daemon's kept traces: cross-job reuse of Isla runs.

Jobs overlap heavily: two submissions of the same program, or two
programs sharing instructions under the same system configuration, want
the *same* Isla runs.  :class:`KeptTraces` is a plain map in front of
:func:`~repro.isla.executor.trace_for_opcode`, owned by the service and
consulted inline by the frontend's serial loop, in the job's own thread
and run scope:

- every per-opcode request is keyed by
  :func:`~repro.cache.keys.trace_key` of its (model, opcode, assumptions),
  the key the disk cache already uses, so requests differing only in
  their address share one entry; a miss passes the key on as the disk
  lookup's ``cache_key``;
- a kept key is a hit (``dedup_hits``): the kept
  :class:`~repro.isla.executor.IslaResult` comes back with
  ``cached=True`` (its metrics describe the original run, as a disk-cache
  hit's do) and no Isla run happens in the job's scope;
- a run that succeeds is kept for the life of the service (the same
  memory policy as the :class:`~repro.cache.DiskCache` handle's); a run
  that raises is not kept, so the next request for its key runs again.

Identity guarantee: a miss is the call the serial loop would make (same
model, opcode, assumptions and cache), so serving through the map cannot
change any trace.  A daemon runs one job at a time, so the map needs no
lock.
"""

from __future__ import annotations

import dataclasses

from ..cache.keys import trace_key
from ..isla.executor import IslaResult, trace_for_opcode


class KeptTraces:
    """Every successful Isla run of a service, by trace key."""

    def __init__(self, telemetry=None) -> None:
        self.telemetry = telemetry
        self._kept: dict[str, IslaResult] = {}

    def trace_for_opcode(self, model, opcode, assumptions, cache=None) -> IslaResult:
        """The kept result for this request, or a fresh run that is kept."""
        key = trace_key(model, opcode, assumptions)
        self._count("trace_requests")
        kept = self._kept.get(key)
        if kept is not None:
            self._count("dedup_hits")
            return dataclasses.replace(kept, cached=True)
        result = trace_for_opcode(
            model, opcode, assumptions, cache=cache, cache_key=key
        )
        self._kept[key] = result
        return result

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.inc(name)
