"""Cross-job trace-request batching, deduplication and reuse.

Binary-verification traffic arrives as many small per-opcode requests, and
jobs overlap heavily: two submissions of the same program, or two
programs sharing instructions under the same system configuration, want
the *same* Isla runs.  The batcher is a single-flight layer in front of
the resident :class:`~repro.parallel.scheduler.WorkerPool`:

- every per-opcode request is keyed by its content — the exact
  (model, opcode, assumptions) payload, so requests differing only in
  their address coalesce;
- the first request for a key becomes the *leader* and is queued for
  dispatch; every later request for the key is a *hit* (``dedup_hits``)
  and subscribes to the leader's future, whether it is still in flight
  or already done;
- a leader that succeeds stays in the table for the life of the batcher
  (the *kept* trace, the same memory policy as the
  :class:`~repro.cache.DiskCache` handle's); a leader that fails is
  removed, so the next request for its key dispatches again;
- a dispatcher thread ships queued leaders to the pool in batches.  For
  a process pool it first collects for a short window (``window_s``) so
  that concurrent jobs share fewer, larger ``map_tasks`` calls; an
  in-process pool (or none) runs each task in the dispatcher thread
  anyway and gets no window.

Identity guarantee: the computation dispatched for a key is the one
``generate_traces_parallel`` would dispatch on the same pool (same task,
same payload; a process pool's traces come back through the same text
codec), so serving through the batcher cannot change any trace.

Follower contract: a hit gets the leader's :class:`IslaResult` with
``cached=True`` (its metrics describe the leader's run, as a disk-cache
hit's do), and the leader's counters join only the run scope of the job
that made the leader — a job reports no Isla runs it did not cause.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import threading
import time

from .. import obs
from ..parallel.scheduler import (
    TaskFailure,
    _isla_result,
    _runs_in_process,
    _trace_payloads,
    _trace_task_for,
)


class TraceBatcher:
    """Single-flight dedup, kept traces and batch dispatch for Isla runs."""

    def __init__(
        self,
        pool=None,
        cache=None,
        window_s: float = 0.01,
        max_batch: int = 32,
        telemetry=None,
    ) -> None:
        self.pool = pool
        self.cache = cache
        self.window_s = window_s
        self.max_batch = max(1, max_batch)
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        #: key -> Future of ``(IslaResult, counters)`` for the leader's
        #: run: in flight, or done and kept.
        self._flights: dict[str, concurrent.futures.Future] = {}
        #: leaders awaiting dispatch: (key, payload).
        self._queue: list[tuple[str, dict]] = []
        self._closed = False
        self._dispatcher: threading.Thread | None = None

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def _exact_key(payload: dict) -> str:
        body = json.dumps(
            {
                "model": payload["model"],
                "opcode": payload["opcode"],
                "assumptions": payload["assumptions"],
            },
            sort_keys=True,
        )
        return "x:" + hashlib.sha256(body.encode()).hexdigest()

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
            # Collection window: let concurrent jobs contribute to a
            # process pool's batch.  Outside the lock on purpose.
            if self.window_s > 0 and not _runs_in_process(self.pool):
                time.sleep(self.window_s)
            with self._lock:
                batch = self._queue[: self.max_batch]
                del self._queue[: len(batch)]
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[tuple[str, dict]]) -> None:
        payloads = [payload for _key, payload in batch]
        if self.telemetry is not None:
            self.telemetry.inc("batches")
            self.telemetry.inc("batched_requests", len(batch))
            self.telemetry.gauge("last_batch_size", len(batch))
        task = _trace_task_for(self.pool)
        try:
            if self.pool is not None:
                raw = self.pool.map_tasks_graceful(task, payloads)
            else:
                raw = []
                for payload in payloads:
                    try:
                        raw.append(task(payload))
                    except Exception as exc:  # noqa: BLE001 — fail-soft
                        raw.append(TaskFailure(f"{type(exc).__name__}: {exc}"))
        except Exception as exc:  # noqa: BLE001 — dispatch itself failed
            raw = [TaskFailure(f"{type(exc).__name__}: {exc}")] * len(batch)
        for (key, _payload), item in zip(batch, raw):
            if not isinstance(item, TaskFailure):
                try:
                    # Only this thread parses, so the process-wide intern
                    # table sees one batcher parse at a time.
                    item = (_isla_result(item), item["counters"])
                except Exception as exc:  # noqa: BLE001 — fail-soft
                    item = TaskFailure(f"{type(exc).__name__}: {exc}")
            with self._lock:
                if isinstance(item, TaskFailure):
                    future = self._flights.pop(key, None)
                else:
                    future = self._flights.get(key)
            if future is None:  # pragma: no cover - defensive
                continue
            if isinstance(item, TaskFailure):
                future.set_exception(RuntimeError(item.reason))
            else:
                future.set_result(item)

    # -- the public entry point ----------------------------------------------

    def generate(self, model, image, default_assumptions=None, per_address=None):
        """Run Isla on every opcode of the image through the dedup layer.

        Drop-in for the frontend's serial loop and for
        ``generate_traces_parallel``: returns an identical
        :class:`~repro.frontend.program.FrontendResult`, up to the
        ``cached`` flag and metrics of hits.
        """
        from ..frontend.program import FrontendResult

        if self.cache is not None:
            self.cache.flush()  # workers read the shared log; no leftovers

        payloads = _trace_payloads(
            model, image, default_assumptions, per_address, self.cache
        )
        keyed = [(self._exact_key(payload), payload) for payload in payloads]
        # (addr, future, whether this job leads it)
        subscriptions: list[tuple[int, concurrent.futures.Future, bool]] = []
        with self._lock:
            for key, payload in keyed:
                future = self._flights.get(key)
                leads = future is None
                if leads:
                    future = concurrent.futures.Future()
                    self._flights[key] = future
                    self._queue.append((key, payload))
                subscriptions.append((payload["addr"], future, leads))
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
