"""Cold vs warm-cache timings for the verification driver.

Run with::

    pytest benchmarks/test_parallel_cache.py --benchmark-only -s

Three configurations per case study, Fig. 12-style:

- **serial**: no cache (the seed pipeline's behaviour);
- **cold**: the same driver filling a cold on-disk trace log;
- **warm**: rerun against the log the cold run filled.

Hard assertions cover only the deterministic facts — warm-run hit counts
and byte-identical certificates across all three configurations; the
serial and warm timings live in the printed table.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pytest

from repro.cache import DiskCache
from repro.casestudies import verify_case
from repro.smt.solver import clear_check_cache

CASES = {
    "memcpy/arm": ("memcpy_arm", {"n": 4}),
    "memcpy/rv": ("memcpy_riscv", {"n": 4}),
    "binsearch/arm": ("binsearch_arm", {"n": 4}),
    "uart": ("uart", {}),
}


@dataclass
class Row:
    name: str
    serial_s: float
    warm_s: float
    trace_hits: int
    trace_misses: int
    trace_writes: int

    def format(self) -> str:
        return (
            f"{self.name:<16} {self.serial_s:>8.3f} "
            f"{self.warm_s:>8.3f}  {self.trace_hits:>4}/{self.trace_misses:<4} "
            f"{self.trace_writes:>6}"
        )


HEADER = (
    f"{'Test':<16} {'ser(s)':>8} {'warm(s)':>8}  "
    f"{'tr h/m':>9} {'writes':>6}"
)


def _serial_governed_run(name, kwargs, cache):
    """One run through the verify driver, from an empty check cache."""
    clear_check_cache()
    t0 = time.perf_counter()
    case, report = verify_case(name, kwargs, cache=cache)
    return case, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def all_rows(tmp_path_factory):
    rows = {}
    proofs = {}
    for label, (name, kwargs) in CASES.items():
        cache_dir = tmp_path_factory.mktemp(f"cache-{name}")
        _, serial_report, serial_s = _serial_governed_run(name, kwargs, cache=None)

        cold_cache = DiskCache(cache_dir)
        case, cold_report, _cold_s = _serial_governed_run(name, kwargs, cold_cache)

        warm_cache = DiskCache(cache_dir)
        _, warm_report, warm_s = _serial_governed_run(name, kwargs, cache=warm_cache)

        rows[label] = Row(
            name=label,
            serial_s=serial_s,
            warm_s=warm_s,
            trace_hits=warm_cache.stats["trace_hits"],
            trace_misses=warm_cache.stats["trace_misses"],
            trace_writes=warm_cache.stats["trace_writes"],
        )
        proofs[label] = {
            "serial": serial_report.proof.to_json(),
            "cold": cold_report.proof.to_json(),
            "warm": warm_report.proof.to_json(),
            "n_opcodes": len(case.image.opcodes),
        }
    return rows, proofs


def test_print_table(all_rows, capsys):
    rows, _ = all_rows
    with capsys.disabled():
        print()
        print(f"Cold/warm cache driver timings (cpus={os.cpu_count()})")
        print(HEADER)
        print("-" * len(HEADER))
        for row in rows.values():
            print(row.format())


def test_certificates_invariant_across_configurations(all_rows):
    """The headline guarantee: the driver and caching change timings only."""
    _, proofs = all_rows
    for label, p in proofs.items():
        assert p["serial"] == p["cold"] == p["warm"], label


def test_warm_run_serves_every_trace(all_rows):
    rows, proofs = all_rows
    for label, row in rows.items():
        assert row.trace_misses == 0, label
        assert row.trace_hits == proofs[label]["n_opcodes"], label
        assert row.trace_writes == 0, label


def test_warm_run_beats_cold_on_trace_generation(all_rows):
    """A warm rerun must not be slower than the serial cold run by more
    than a small constant factor (cache lookups must stay cheap)."""
    rows, _ = all_rows
    total_serial = sum(r.serial_s for r in rows.values())
    total_warm = sum(r.warm_s for r in rows.values())
    assert total_warm < max(total_serial * 1.5, 1.0)
