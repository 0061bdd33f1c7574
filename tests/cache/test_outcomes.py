"""Cache hits never change outcomes.

The regression this pins: a warm cache may only change *timings* and cache
counters — outcome maps and proof certificates must be byte-identical to a
cache-cold run, and a fault-injected run must not consult the cache at all.
"""

from __future__ import annotations

from repro import casestudies
from repro.cache import DiskCache
from repro.isla import trace_for_opcode
from repro.logic.automation import verify_program
from repro.parallel.config import configured
from repro.parallel.scheduler import pc_for
from repro.resilience import FaultInjector, inject
from repro.smt.solver import clear_check_cache, install_persistent_check_store

CASE = "memcpy_arm"
KWARGS = {"n": 3}


def _run(cache):
    """One governed serial run, mirroring the ``tools.verify`` driver."""
    module = getattr(casestudies, CASE)
    clear_check_cache()  # in-memory LRU must not shadow the disk store
    previous = install_persistent_check_store(cache)
    try:
        with configured(jobs=1, cache=cache):
            case = module.build(**KWARGS)
        report = verify_program(case.frontend.traces, case.specs, pc_for(module))
    finally:
        install_persistent_check_store(previous)
        if cache is not None:
            cache.flush()
    return case, report


def test_warm_run_is_byte_identical(tmp_path):
    cold_cache = DiskCache(tmp_path)
    case, cold = _run(cold_cache)
    assert cold.ok
    assert cold_cache.stats["trace_hits"] == 0
    assert cold_cache.stats["trace_writes"] == len(case.frontend.traces)

    warm_cache = DiskCache(tmp_path)  # fresh handle, same directory
    case2, warm = _run(warm_cache)
    assert warm.ok
    # Full warm coverage: every trace and every solver verdict is served.
    assert warm_cache.stats["trace_hits"] == len(case2.frontend.traces)
    assert warm_cache.stats["trace_misses"] == 0
    assert warm_cache.stats["smt_misses"] == 0
    assert warm_cache.stats["smt_hits"] > 0
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
    # injected faults have to perturb real computations, and a verdict
    # produced under injection must never outlive the injected run.
    assert not result.cached
    assert warm.stats["trace_hits"] == 0
    assert warm.stats["trace_writes"] == 0
