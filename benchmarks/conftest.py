"""Benchmark-session plumbing: the machine-readable perf trajectory.

Benchmarks that call the ``bench_smt_record`` fixture contribute named
records (timings, query counts, cache and slice hit rates, speedups) that
are merged into ``BENCH_smt.json`` at the repo root when the session ends
(likewise ``BENCH_service.json`` and ``BENCH_cosim.json``).  Merging — rather than rewriting — means
running one benchmark file updates its own entries and leaves the rest of
the records intact.  The files are build output, not committed (CI
uploads them as an artifact); EXPERIMENTS.md keeps their history.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

_RECORDS: dict[str, dict] = {}
_SERVICE_RECORDS: dict[str, dict] = {}
_COSIM_RECORDS: dict[str, dict] = {}

_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = _ROOT / "BENCH_smt.json"
BENCH_SERVICE_PATH = _ROOT / "BENCH_service.json"
BENCH_COSIM_PATH = _ROOT / "BENCH_cosim.json"

# Parity benchmarks time the reference engines in ``tests/_reference.py``.
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))


@pytest.fixture
def bench_smt_record():
    """Record one named benchmark result for ``BENCH_smt.json``."""

    def record(name: str, **data) -> None:
        _RECORDS[name] = data

    return record


@pytest.fixture
def bench_service_record():
    """Record one named daemon benchmark result for ``BENCH_service.json``."""

    def record(name: str, **data) -> None:
        _SERVICE_RECORDS[name] = data

    return record


@pytest.fixture
def bench_cosim_record():
    """Record one named co-simulation benchmark for ``BENCH_cosim.json``."""

    def record(name: str, **data) -> None:
        _COSIM_RECORDS[name] = data

    return record


def _merge_into(path: pathlib.Path, records: dict[str, dict]) -> None:
    merged: dict[str, dict] = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            merged = {}
    merged.update(records)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def pytest_sessionfinish(session, exitstatus):
    if _RECORDS:
        _merge_into(BENCH_PATH, _RECORDS)
    if _SERVICE_RECORDS:
        _merge_into(BENCH_SERVICE_PATH, _SERVICE_RECORDS)
    if _COSIM_RECORDS:
        _merge_into(BENCH_COSIM_PATH, _COSIM_RECORDS)
