"""Counts are attributed to the run that caused them, not to whatever else
the process was doing at the time.

Two in-process jobs (``jobs=1``: trace generation and block proofs run in
the calling thread) share the process-global parametric engine and check
cache — the daemon's situation under ``--jobs 1 --runners 2``, or after
its pool falls back in-process.  Each report must carry its own run's
family counts only.
"""

from __future__ import annotations

import tempfile
import threading

from repro.cache import DiskCache
from repro.parallel.scheduler import verify_case_parallel
from repro.smt.solver import install_persistent_check_store, persistent_check_store

JOBS = {"memcpy_riscv": "armv8_a", "binsearch_arm": "riscv64"}
ROUNDS = 4


def _run(name: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-attr-") as root:
        # Ephemeral: the block workers drop their handles on it after use.
        cache = DiskCache(root, ephemeral=True)
        _case, report = verify_case_parallel(name, {"n": 6}, jobs=1, cache=cache)
    assert report.ok
    return report.parametric_stats


def test_concurrent_runs_keep_their_own_family_counts():
    # The on-disk verdict store is one process-global slot that each
    # in-process block worker installs and restores; two threads doing so
    # can leave one's store installed.  Restore it, so later tests do not
    # answer queries from a store this test left behind.
    store = persistent_check_store()
    try:
        _compare_with_solo_runs()
    finally:
        install_persistent_check_store(store)


def _compare_with_solo_runs() -> None:
    alone = {name: _run(name) for name in JOBS}
    for name in JOBS:
        assert alone[name].get("family_instantiations", 0) > 0
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
        for name, other_arch in JOBS.items():
            foreign = [key for key in stats[name] if other_arch in key]
            assert foreign == [], f"{name} counted the other job's {foreign}"
            assert (
                stats[name]["family_instantiations"]
                == alone[name]["family_instantiations"]
            )
