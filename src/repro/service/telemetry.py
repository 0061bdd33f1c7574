"""Service telemetry: counters, gauges, latency percentiles, JSON logs.

One :class:`Telemetry` instance per daemon.  Counters are one
:class:`repro.obs.Counters`, monotonic and cheap (a dict behind a lock —
the daemon's request rates are far below anything needing sharded
atomics); latencies go into a bounded reservoir
from which p50/p95/p99 are computed on demand, beside a monotonic count
and sum that the reservoir's trimming never touches.  The ``/metrics`` endpoint
renders either Prometheus text exposition or the raw JSON snapshot.

Structured logs are newline-delimited JSON written through
:meth:`Telemetry.log`; every record carries a wall-clock timestamp and an
``event`` name, so ``jq`` is the whole log toolchain.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from ..obs import Counters


class Telemetry:
    """Thread-safe counters + latency reservoir + structured logger."""

    #: Reservoir cap: enough for stable tail percentiles at service scale,
    #: small enough to never matter for memory.
    RESERVOIR = 4096

    def __init__(self, log_stream=None, service: str = "repro.service") -> None:
        self._lock = threading.Lock()
        #: Monotonic counters; a run report's stats join them through
        #: :meth:`~repro.obs.Counters.add` with a ``solver_``-style prefix.
        self.counters = Counters()
        self._gauges: dict[str, float] = {}
        self._latencies: list[float] = []
        self._latency_count = 0
        self._latency_sum = 0.0
        self._latencies_by_priority: dict[str, list[float]] = {}
        self._started = time.time()
        self._log_stream = log_stream
        self._service = service

    # -- counters and gauges -------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        self.counters.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def counter(self, name: str) -> float:
        return self.counters[name]

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latency_count += 1
            self._latency_sum += seconds
            self._observe(self._latencies, seconds)

    def observe_queue_latency(self, seconds: float, priority: str) -> None:
        """Record end-to-end (submit→done) latency for one priority class.

        Kept separate from :meth:`observe_latency` — the global reservoir
        tracks pure *run* time, while the per-priority reservoirs track
        queue + run time, which is the metric that exposes starvation.
        """
        with self._lock:
            reservoir = self._latencies_by_priority.setdefault(priority, [])
            self._observe(reservoir, seconds)

    def _observe(self, reservoir: list[float], seconds: float) -> None:
        reservoir.append(seconds)
        if len(reservoir) > self.RESERVOIR:
            # Drop the oldest half: keeps the reservoir recent-biased
            # without per-observation randomness.
            del reservoir[: self.RESERVOIR // 2]

    # -- views ---------------------------------------------------------------

    @staticmethod
    def _percentile(sorted_values: list[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(
            len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1)))
        )
        return sorted_values[index]

    @classmethod
    def _latency_block(cls, latencies: list[float]) -> dict:
        latencies = sorted(latencies)
        return {
            "count": len(latencies),
            "p50_s": cls._percentile(latencies, 0.50),
            "p95_s": cls._percentile(latencies, 0.95),
            "p99_s": cls._percentile(latencies, 0.99),
            "max_s": latencies[-1] if latencies else 0.0,
        }

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_s": round(time.time() - self._started, 3),
                "counters": dict(sorted(self.counters.snapshot().items())),
                "gauges": dict(sorted(self._gauges.items())),
                "latency": self._latency_block(self._latencies),
                "latency_by_priority": {
                    priority: self._latency_block(reservoir)
                    for priority, reservoir in sorted(
                        self._latencies_by_priority.items()
                    )
                },
            }

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters, gauges, latency summary)."""
        snap = self.snapshot()
        with self._lock:
            count, total = self._latency_count, self._latency_sum
        lines: list[str] = []

        def emit(name: str, value: float, kind: str) -> None:
            metric = "repro_service_" + name
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {value}")

        emit("uptime_seconds", snap["uptime_s"], "gauge")
        for name, value in snap["counters"].items():
            emit(name + "_total", value, "counter")
        for name, value in snap["gauges"].items():
            emit(name, value, "gauge")
        metric = "repro_service_job_latency_seconds"
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50_s"), ("0.95", "p95_s"), ("0.99", "p99_s")):
            lines.append(f'{metric}{{quantile="{quantile}"}} {snap["latency"][key]}')
        lines.append(f"{metric}_sum {total}")
        lines.append(f"{metric}_count {count}")
        return "\n".join(lines) + "\n"

    # -- structured logging --------------------------------------------------

    def log(self, event: str, **fields) -> None:
        stream = self._log_stream
        if stream is None:
            return
        record = {"ts": time.time(), "service": self._service, "event": event}
        record.update(fields)
        try:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            stream.flush()
        except (OSError, ValueError):
            pass  # a dead log sink must never take the service down


def stderr_telemetry() -> Telemetry:
    """A telemetry instance logging structured JSON to stderr."""
    return Telemetry(log_stream=sys.stderr)
