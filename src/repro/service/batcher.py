"""Cross-job trace-request batching and deduplication.

Binary-verification traffic arrives as many small per-opcode requests, and
concurrent jobs overlap heavily: two submissions of the same program, or
two programs sharing instructions under the same system configuration,
want the *same* Isla runs.  The batcher is a single-flight layer in front
of the resident :class:`~repro.parallel.scheduler.WorkerPool`:

- every per-opcode request is keyed by its content — the exact
  (model, opcode, assumptions) payload, so requests differing only in
  their address coalesce;
- the first request for a key becomes the *leader* and is queued for
  dispatch; followers subscribe to the leader's future (``dedup_hits``);
- a dispatcher thread collects queued leaders for a short window
  (``window_s``) and ships them to the pool as one batch — fewer, larger
  ``map_tasks`` calls, warm worker processes.

Identity guarantee: the computation dispatched for a key is byte-for-byte
the one ``generate_traces_parallel`` would dispatch (same worker function,
same payload codec), and results are parsed back through the same path, so
serving through the batcher cannot change any result.  Followers observe
the leader's metrics with ``cached=True`` semantics only when the leader
itself was served from cache; otherwise they share the leader's metrics —
exactly what a same-process disk-cache hit would report.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import threading
import time

from .. import obs
from ..parallel.scheduler import (
    TaskFailure,
    _isla_result,
    _trace_payloads,
    _trace_worker,
)


class TraceBatcher:
    """Single-flight dedup + windowed batch dispatch for Isla runs."""

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
        #: key -> Future for the in-flight leader computation.
        self._inflight: dict[str, concurrent.futures.Future] = {}
        #: leaders awaiting dispatch: (key, payload).
        self._queue: list[tuple[str, dict]] = []
        self._closed = False
        self._dispatcher: threading.Thread | None = None
        # The ITL parser interns into a process-wide table; serialise
        # parsing so concurrent job threads cannot race it.
        self._parse_lock = threading.Lock()

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
            # Collection window: let concurrent jobs contribute to the
            # batch before dispatch.  Outside the lock on purpose.
            if self.window_s > 0:
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
        try:
            if self.pool is not None:
                raw = self.pool.map_tasks_graceful(_trace_worker, payloads)
            else:
                raw = []
                for payload in payloads:
                    try:
                        raw.append(_trace_worker(payload))
                    except Exception as exc:  # noqa: BLE001 — fail-soft
                        raw.append(TaskFailure(f"{type(exc).__name__}: {exc}"))
        except Exception as exc:  # noqa: BLE001 — dispatch itself failed
            raw = [TaskFailure(f"{type(exc).__name__}: {exc}")] * len(batch)
        for (key, _payload), item in zip(batch, raw):
            with self._lock:
                future = self._inflight.pop(key, None)
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
        :class:`~repro.frontend.program.FrontendResult`.
        """
        from ..frontend.program import FrontendResult

        if self.cache is not None:
            self.cache.flush()  # workers read the shared log; no leftovers

        subscriptions: list[tuple[int, concurrent.futures.Future]] = []
        for payload in _trace_payloads(
            model, image, default_assumptions, per_address, self.cache
        ):
            key = self._exact_key(payload)
            if self.telemetry is not None:
                self.telemetry.inc("trace_requests")
            with self._lock:
                future = self._inflight.get(key)
                if future is not None:
                    if self.telemetry is not None:
                        self.telemetry.inc("dedup_hits")
                else:
                    future = concurrent.futures.Future()
                    self._inflight[key] = future
                    self._queue.append((key, payload))
                    self._ensure_dispatcher()
                    self._wakeup.notify()
            subscriptions.append((payload["addr"], future))

        traces = {}
        results = {}
        # A leader's counts join this job's run scope once per *distinct*
        # leader future: followers share the leader's result object, and
        # double-counting a deduplicated computation would inflate the hit
        # rate.
        counted: set[int] = set()
        for addr, future in subscriptions:
            item = future.result()
            with self._parse_lock:
                result = _isla_result(item)
            traces[addr] = result.trace
            results[addr] = result
            if id(future) not in counted:
                counted.add(id(future))
                obs.add(item["counters"])
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
