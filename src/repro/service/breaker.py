"""Per-shard circuit breakers for the verification fleet.

A breaker sits between the fleet router and one backend shard and keeps a
flapping or dead shard from absorbing traffic that will only time out.
Classic three-state machine:

- **closed** — traffic flows; consecutive failures are counted and a run
  of ``failure_threshold`` of them trips the breaker;
- **open** — all traffic is refused locally (the router places the job
  on the least-loaded other shard) until a cooldown elapses;
- **half-open** — after the cooldown, a bounded number of *probe*
  requests are let through; one success closes the breaker and resets its
  state, one failure re-opens it.

Re-opening doubles the cooldown (capped), so a shard that flaps on every
probe backs off exponentially instead of being hammered at a fixed
cadence — the same bounded-exponential shape as the budget ladder and the
supervisor's restart backoff.  A success resets the cooldown to its base.

The ``clock`` hook exists so tests drive transitions deterministically;
production uses ``time.monotonic``.  All methods are thread-safe: the
router's dispatcher threads share one breaker per shard.
"""

from __future__ import annotations

import threading
import time

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

STATES = (CLOSED, OPEN, HALF_OPEN)


class CircuitBreaker:
    """One shard's admission valve on the router side."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        max_cooldown_s: float = 30.0,
        half_open_probes: int = 1,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.base_cooldown_s = cooldown_s
        self.max_cooldown_s = max_cooldown_s
        self.half_open_probes = max(1, half_open_probes)
        self.clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive failures while closed
        self._cooldown_s = cooldown_s
        self._opened_at: float | None = None
        self._probes_inflight = 0
        #: Lifetime transition counters, surfaced through /metrics.
        self.times_opened = 0
        self.times_closed = 0

    # -- state ----------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._tick()
            return self._state

    def _tick(self) -> None:
        """Open → half-open once the cooldown has elapsed (lock held)."""
        if self._state == OPEN and self._opened_at is not None:
            if self.clock() - self._opened_at >= self._cooldown_s:
                self._state = HALF_OPEN
                self._probes_inflight = 0

    def _trip(self) -> None:
        """Transition to open (lock held); each re-open doubles the cooldown."""
        if self._state == OPEN:
            return
        if self._state == HALF_OPEN or self.times_opened:
            self._cooldown_s = min(self.max_cooldown_s, self._cooldown_s * 2)
        self._state = OPEN
        self._opened_at = self.clock()
        self._failures = 0
        self.times_opened += 1

    # -- the router-facing API ------------------------------------------------

    def allow(self) -> bool:
        """May one request be sent to this shard right now?

        In half-open state, at most ``half_open_probes`` concurrent probes
        are admitted; callers that get ``True`` must report the outcome
        via :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            self._tick()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probes_inflight >= self.half_open_probes:
                return False
            self._probes_inflight += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            self._tick()
            if self._state == HALF_OPEN:
                self.times_closed += 1
                self._cooldown_s = self.base_cooldown_s
            self._state = CLOSED
            self._failures = 0
            self._probes_inflight = 0

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            if self._state == HALF_OPEN:
                self._trip()
                return
            if self._state == OPEN:
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip()

    def force_open(self) -> None:
        """Trip immediately (the supervisor declared the shard dead)."""
        with self._lock:
            self._trip()

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            self._tick()
            return {
                "state": self._state,
                "failures": self._failures,
                "cooldown_s": self._cooldown_s,
                "times_opened": self.times_opened,
                "times_closed": self.times_closed,
            }
