"""The one counter type (``repro.obs.Counters``) and the run scope.

Non-numeric and bool values being skipped by ``Counters.add`` is covered
where the daemon relies on it: ``tests/service/test_telemetry.py``.
"""

from __future__ import annotations

import pickle
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import Counters

NAMES = st.sampled_from(["hits", "misses", "family_hits", "checks", "solve_us"])
SNAPSHOTS = st.lists(
    st.dictionaries(NAMES, st.integers(min_value=0, max_value=10**12)),
    max_size=8,
)


def _sum(snapshots, prefix=""):
    total = Counters()
    for snapshot in snapshots:
        total.add(snapshot, prefix)
    return total.snapshot()


@settings(max_examples=200, deadline=None)
@given(SNAPSHOTS, st.randoms(use_true_random=False))
def test_add_is_order_independent(snapshots, rnd):
    shuffled = list(snapshots)
    rnd.shuffle(shuffled)
    assert _sum(shuffled) == _sum(snapshots)
    # Merging in two halves (a worker's partial sums) gives the same total.
    half = len(snapshots) // 2
    assert _sum([_sum(snapshots[:half]), _sum(snapshots[half:])]) == _sum(snapshots)


@settings(max_examples=100, deadline=None)
@given(SNAPSHOTS, st.sampled_from(["", "disk.", "cache."]))
def test_snapshot_survives_pickle_and_prefix_round_trip(snapshots, prefix):
    counters = Counters(["declared"])
    for snapshot in snapshots:
        counters.add(snapshot, prefix)
    snap = counters.snapshot()
    assert pickle.loads(pickle.dumps(snap)) == snap
    assert snap["declared"] == 0  # declared names report before any count
    if prefix:
        assert counters.snapshot(prefix) == _sum(snapshots)


def test_count_lands_in_the_innermost_scope_only():
    obs.count("outside")  # no scope: a no-op, not an error
    with obs.scope() as outer:
        obs.count("a")
        with obs.scope() as inner:
            obs.count("a", 2)
        obs.add(inner.snapshot(), "inner.")
    assert inner.snapshot() == {"a": 2}
    assert outer.snapshot() == {"a": 1, "inner.a": 2}


def test_scoped_counters_count_in_both_places():
    process = Counters(["hits"], scoped_as="disk.")
    process.inc("hits")
    with obs.scope() as run:
        process.inc("hits", 2)
    assert process["hits"] == 3
    assert run.snapshot() == {"disk.hits": 2}


def test_threads_have_their_own_scopes_and_lose_no_update():
    # More threads than cores, and a short switch interval, so a lost
    # read-modify-write on the shared counters would show.
    shared = Counters(["n"], scoped_as="shared.")
    barrier = threading.Barrier(8)
    seen: dict[int, dict] = {}

    def work(i: int) -> None:
        with obs.scope() as run:
            barrier.wait()
            for _ in range(500):
                shared.inc("n")
                obs.count(f"t{i}")
        seen[i] = run.snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert shared["n"] == 8 * 500
    assert seen == {i: {"shared.n": 500, f"t{i}": 500} for i in range(8)}
