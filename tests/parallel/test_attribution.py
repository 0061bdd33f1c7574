"""Counts are attributed to the run that caused them, not to whatever else
the process was doing at the time.

Two jobs (trace generation and the governed proof run in the calling
thread) count into the process at the same time — the situation of two in-process
shards (:class:`~repro.service.supervisor.LocalShard`), each running its
one job.  A daemon runs one job at a time, but in-process shards share
the process.  Each run's scope must carry its own trace-cache counts
only: a job on its own cache directory sees the same ``disk.trace_*``
counts alone and next to another job.
"""

from __future__ import annotations

import tempfile
import threading

from repro import obs
from repro.cache import DiskCache
from repro.casestudies import verify_case

JOBS = ("memcpy_riscv", "binsearch_arm")
ROUNDS = 4


def _run(name: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-attr-") as root:
        cache = DiskCache(root)
        with obs.scope() as run:
            _case, report = verify_case(name, {"n": 6}, cache=cache)
    assert report.ok
    return run.snapshot("disk.trace_")


def test_concurrent_runs_keep_their_own_trace_counts():
    alone = {name: _run(name) for name in JOBS}
    for name in JOBS:
        assert alone[name].get("writes", 0) > 0
    for _ in range(ROUNDS):
        barrier = threading.Barrier(len(JOBS))
        stats: dict[str, dict] = {}

        def work(name: str) -> None:
            barrier.wait()
            stats[name] = _run(name)

        threads = [threading.Thread(target=work, args=(name,)) for name in JOBS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        for name in JOBS:
            assert stats[name] == alone[name], name
