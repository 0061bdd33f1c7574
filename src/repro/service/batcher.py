"""Cross-job trace-request batching, deduplication and reuse.

Binary-verification traffic arrives as many small per-opcode requests, and
jobs overlap heavily: two submissions of the same program, or two
programs sharing instructions under the same system configuration, want
the *same* Isla runs.  The batcher is a single-flight layer in front of
:func:`~repro.isla.executor.trace_for_opcode`:

- every per-opcode request is keyed by
  :func:`~repro.cache.keys.trace_key` of its (model, opcode, assumptions),
  the key the disk cache already uses, so requests differing only in
  their address coalesce; a leader's run reuses the key for its disk
  lookup;
- the first request for a key becomes the *leader* and is queued for
  dispatch; every later request for the key is a *hit* (``dedup_hits``)
  and subscribes to the leader's future, whether it is still in flight
  or already done;
- a leader that succeeds stays in the table for the life of the batcher
  (the *kept* trace, the same memory policy as the
  :class:`~repro.cache.DiskCache` handle's); a leader that fails is
  removed, so the next request for its key dispatches again;
- a dispatcher thread takes queued leaders in batches of at most
  ``max_batch`` and runs each one in its own run scope.

Identity guarantee: the computation dispatched for a key is the call the
frontend's serial loop would make (same model, opcode, assumptions and
cache), so serving through the batcher cannot change any trace.

Follower contract: a hit gets the leader's :class:`IslaResult` with
``cached=True`` (its metrics describe the leader's run, as a disk-cache
hit's do), and the leader's counters join only the run scope of the job
that made the leader — a job reports no Isla runs it did not cause.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import threading

from .. import obs
from ..cache.keys import trace_key
from ..isla.assumptions import Assumptions
from ..isla.executor import trace_for_opcode


class TraceBatcher:
    """Single-flight dedup, kept traces and batch dispatch for Isla runs."""

    def __init__(self, cache=None, max_batch: int = 32, telemetry=None) -> None:
        self.cache = cache
        self.max_batch = max(1, max_batch)
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        #: key -> Future of ``(IslaResult, counters)`` for the leader's
        #: run: in flight, or done and kept.
        self._flights: dict[str, concurrent.futures.Future] = {}
        #: leaders awaiting dispatch: (key, (model, opcode, assumptions)).
        self._queue: list[tuple[str, tuple]] = []
        self._closed = False
        self._dispatcher: threading.Thread | None = None

    # -- the dispatcher ------------------------------------------------------

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="trace-batcher", daemon=True
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait(timeout=0.5)
                if self._closed and not self._queue:
                    return
                batch = self._queue[: self.max_batch]
                del self._queue[: len(batch)]
            self._run_batch(batch)

    def _run_batch(self, batch: list[tuple[str, tuple]]) -> None:
        if self.telemetry is not None:
            self.telemetry.inc("batches")
            self.telemetry.inc("batched_requests", len(batch))
            self.telemetry.gauge("last_batch_size", len(batch))
        for key, (model, opcode, assumptions) in batch:
            failure = None
            try:
                with obs.scope() as run:
                    result = trace_for_opcode(
                        model, opcode, assumptions,
                        cache=self.cache, cache_key=key,
                    )
            except Exception as exc:  # noqa: BLE001 — fail-soft
                failure = RuntimeError(f"{type(exc).__name__}: {exc}")
            with self._lock:
                if failure is not None:
                    future = self._flights.pop(key, None)
                else:
                    future = self._flights.get(key)
            if future is None:  # pragma: no cover - defensive
                continue
            if failure is not None:
                future.set_exception(failure)
            else:
                future.set_result((result, run.snapshot()))

    # -- the public entry point ----------------------------------------------

    def generate(self, model, image, default_assumptions=None, per_address=None):
        """Run Isla on every opcode of the image through the dedup layer.

        Drop-in for the frontend's serial loop: returns an identical
        :class:`~repro.frontend.program.FrontendResult`, up to the
        ``cached`` flag and metrics of hits.
        """
        from ..frontend.program import FrontendResult

        per_address = per_address or {}
        # (addr, future, whether this job leads it)
        subscriptions: list[tuple[int, concurrent.futures.Future, bool]] = []
        requests = []
        for addr in sorted(image.opcodes):
            opcode = image.opcodes[addr]
            assumptions = (default_assumptions or Assumptions()).merged_with(
                per_address.get(addr)
            )
            key = trace_key(model, opcode, assumptions)
            requests.append((addr, key, (model, opcode, assumptions)))
        with self._lock:
            for addr, key, request in requests:
                future = self._flights.get(key)
                leads = future is None
                if leads:
                    future = concurrent.futures.Future()
                    self._flights[key] = future
                    self._queue.append((key, request))
                subscriptions.append((addr, future, leads))
            if self._queue:
                self._ensure_dispatcher()
                self._wakeup.notify()
        if self.telemetry is not None:
            self.telemetry.inc("trace_requests", len(subscriptions))
            hits = sum(1 for _addr, _future, leads in subscriptions if not leads)
            if hits:
                self.telemetry.inc("dedup_hits", hits)

        traces = {}
        results = {}
        for addr, future, leads in subscriptions:
            result, counters = future.result()
            if leads:
                obs.add(counters)
            else:
                result = dataclasses.replace(result, cached=True)
            traces[addr] = result.trace
            results[addr] = result
        return FrontendResult(traces, results)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5)

    def __enter__(self) -> "TraceBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
