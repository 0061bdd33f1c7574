"""Counters: the one counter type, and the run scope that attributes counts.

A :class:`Counters` is a thread-safe bag of named numbers with one additive
merge, :meth:`Counters.add`; snapshots are plain picklable dicts.  A
run scope (:func:`scope`) is a :class:`Counters` made current by a
:class:`contextvars.ContextVar` (the ambient pattern of
:func:`repro.frontend.program.configured`), so concurrent runs never see
each other's counts.  :func:`count` lands in the innermost scope only;
whatever runs in its own scope — a governed verify run — hands its
snapshot up and the parent adds it once (:func:`add`).  See DESIGN.md,
"Counters".
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator


class Counters:
    """Named monotonic counters behind one lock.

    ``names`` are reported (as zero) before their first increment, so a
    snapshot's key set does not depend on what happened to run.
    """

    def __init__(self, names: Iterable[str] = (), scoped_as: str | None = None) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, float] = dict.fromkeys(names, 0)
        self._scoped_as = scoped_as

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + value
        if self._scoped_as is not None:
            count(self._scoped_as + name, value)

    def add(self, snapshot: dict, prefix: str = "") -> None:
        """Add another snapshot's counts, each name prefixed with
        ``prefix``; values that are not numbers (or are bools) are skipped."""
        with self._lock:
            for name, value in snapshot.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    key = prefix + name
                    self._counts[key] = self._counts.get(key, 0) + value

    def snapshot(self, prefix: str = "") -> dict:
        """The counts as a ``dict``; with ``prefix``, only the names under
        it, with the prefix stripped."""
        with self._lock:
            if not prefix:
                return dict(self._counts)
            cut = len(prefix)
            return {
                name[cut:]: value
                for name, value in self._counts.items()
                if name.startswith(prefix)
            }

    def __getitem__(self, name: str) -> float:
        with self._lock:
            return self._counts.get(name, 0)


_SCOPE: contextvars.ContextVar[Counters | None] = contextvars.ContextVar(
    "repro_run_counters", default=None
)


@contextmanager
def scope() -> Iterator[Counters]:
    """Make a fresh :class:`Counters` the current run scope for a block."""
    counters = Counters()
    token = _SCOPE.set(counters)
    try:
        yield counters
    finally:
        _SCOPE.reset(token)


def count(name: str, value: float = 1) -> None:
    """Count in the current run scope; a no-op outside one."""
    current = _SCOPE.get()
    if current is not None:
        current.inc(name, value)


def add(snapshot: dict, prefix: str = "") -> None:
    """:meth:`Counters.add` into the current run scope; a no-op outside one."""
    current = _SCOPE.get()
    if current is not None:
        current.add(snapshot, prefix)
