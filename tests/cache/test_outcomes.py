"""Cache hits never change outcomes.

The regression this pins: a warm cache may only change *timings* and cache
counters — outcome maps and proof certificates must be byte-identical to a
cache-cold run, and a fault-injected run must not consult the cache at all.
"""

from __future__ import annotations

from repro.cache import DiskCache
from repro.casestudies import verify_case
from repro.isla import trace_for_opcode
from repro.resilience import FaultInjector, inject
from repro.smt.solver import clear_check_cache

CASE = "memcpy_arm"
KWARGS = {"n": 3}


def _run(cache):
    """One governed run through the ``tools.verify`` driver."""
    clear_check_cache()  # each run starts from the same solver state
    return verify_case(CASE, KWARGS, cache=cache)


def test_warm_run_is_byte_identical(tmp_path):
    cold_cache = DiskCache(tmp_path)
    case, cold = _run(cold_cache)
    assert cold.ok
    assert cold_cache.stats["trace_hits"] == 0
    assert cold_cache.stats["trace_writes"] == len(case.frontend.traces)

    warm_cache = DiskCache(tmp_path)  # fresh handle, same directory
    case2, warm = _run(warm_cache)
    assert warm.ok
    # Full warm coverage: every trace is read from the log, none is
    # re-stored, and no trace came from the handle's memory.
    assert warm_cache.stats["trace_hits"] == len(case2.frontend.traces)
    assert warm_cache.stats["trace_misses"] == 0
    assert warm_cache.stats["trace_writes"] == 0
    assert warm_cache.stats["trace_mem_hits"] == 0
    # And the results are indistinguishable from the cold run.
    assert {a: b.outcome for a, b in warm.blocks.items()} == {
        a: b.outcome for a, b in cold.blocks.items()
    }
    assert warm.proof.to_json() == cold.proof.to_json()


def test_fault_injection_bypasses_cache(tmp_path):
    from repro.arch.arm import ArmModel

    model = ArmModel()
    opcode = 0x8B030041  # add x1, x2, x3
    cache = DiskCache(tmp_path)
    trace_for_opcode(model, opcode, cache=cache)  # populate
    assert cache.stats["trace_writes"] == 1
    warm = DiskCache(tmp_path)
    with inject(FaultInjector(seed=3, rate=0.0)):
        result = trace_for_opcode(model, opcode, cache=warm)
    # An active injector must not read from or write to the store:
    # injected faults have to perturb real computations, and a trace
    # produced under injection must never outlive the injected run.
    assert not result.cached
    assert warm.stats["trace_hits"] == 0
    assert warm.stats["trace_writes"] == 0


def _certs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _verify(argv, capsys):
    from repro.tools.verify import main

    clear_check_cache()  # each run starts from the same solver state
    assert main(argv) == 0
    return capsys.readouterr().out


def test_repeated_cli_runs_match_no_cache(tmp_path, capsys, monkeypatch):
    """Two ``verify`` runs in one process on one root: both give the
    ``--no-cache`` certificates, and the second reads no trace record."""
    argv = ["memcpy_arm", "--n", "2"]
    _verify(argv + ["--no-cache", "--cert-dir", str(tmp_path / "plain")], capsys)
    root = str(tmp_path / "c")
    _verify(argv + ["--cache-dir", root, "--cert-dir", str(tmp_path / "cold")], capsys)
    reads = []
    real = DiskCache._read_entry
    monkeypatch.setattr(
        DiskCache, "_read_entry", lambda self, *args: (reads.append(args), real(self, *args))[1]
    )
    _verify(argv + ["--cache-dir", root, "--cert-dir", str(tmp_path / "warm")], capsys)
    assert reads == []
    plain = _certs(tmp_path / "plain")
    assert plain and _certs(tmp_path / "cold") == plain == _certs(tmp_path / "warm")


def test_full_disk_does_not_fail_the_run(tmp_path, capsys, monkeypatch):
    """Every trace write fails with ENOSPC: the run still verifies, with
    the ``--no-cache`` certificate, and the handle serves its traces."""
    import re

    from repro.cache import store

    def enospc(*args, **kwargs):
        raise OSError(28, "No space left on device")

    _verify(["rbit", "--no-cache", "--cert-dir", str(tmp_path / "plain")], capsys)
    monkeypatch.setattr(store.os, "write", enospc)
    root = tmp_path / "c"
    argv = ["rbit", "--cache-dir", str(root), "--cert-dir", str(tmp_path / "full"), "-v"]
    _verify(argv, capsys)
    # Nothing reached the disk.
    assert [p.stat().st_size for p in root.glob("v*/traces.log")] == [0]
    assert _certs(tmp_path / "full") == _certs(tmp_path / "plain")
    line = _verify(argv, capsys)
    hits, misses = map(int, re.search(r"traces (\d+) hits / (\d+) misses", line).groups())
    memory = int(re.search(r"(\d+) trace hits from memory", line)[1])
    assert hits > 0 and misses == 0 and memory == hits
