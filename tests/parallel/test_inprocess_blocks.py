"""An in-process pool verifies a job's blocks on the case it already built.

``verify_case_parallel`` with a pool that runs in-process (one job, or a
pool that could not start — fleet shards and ``serve --jobs 1``) builds the
case once and proves every block on it: no per-block rebuild, no ephemeral
``repro-cache-*`` root, no certificate JSON round trip.  Everything a
process worker guarantees still holds: certificates equal the serial CLI's,
per-block fault seeds and budget shares give the same outcomes as a real
process pool, a raising block or a drain lands ``unknown``, and pools that
do not declare themselves in-process keep the process worker.
"""

from __future__ import annotations

import tempfile

import pytest

from repro import casestudies
from repro.parallel.scheduler import (
    TaskFailure,
    WorkerPool,
    _verify_block_worker,
    verify_case_parallel,
)
from repro.resilience import (
    SHUTDOWN_REASON,
    BudgetSpec,
    request_shutdown,
    reset_shutdown,
)
from repro.smt.solver import install_persistent_check_store

CASES = [("memcpy_arm", 3), ("binsearch_riscv", 3), ("pkvm", None)]


@pytest.fixture(autouse=True)
def _no_verdict_store():
    """Run without an on-disk verdict store, whatever earlier tests left
    installed, and put back what was there."""
    previous = install_persistent_check_store(None)
    yield
    install_persistent_check_store(previous)


def _kwargs(name: str, n: int | None) -> dict:
    from repro.tools.verify import _build_kwargs

    return _build_kwargs(getattr(casestudies, name), n)


def _outcomes(report) -> dict:
    return {addr: block.outcome for addr, block in report.blocks.items()}


class TestPoolDeclaresItsPath:
    def test_one_job_is_in_process(self):
        assert WorkerPool(1).in_process
        assert not WorkerPool(2).in_process

    def test_pool_without_the_property_keeps_the_process_worker(self):
        seen = []

        class _Stub:
            jobs = 2

            def map_tasks(self, fn, payloads):
                return [fn(p) for p in payloads]

            def map_tasks_graceful(self, fn, payloads, on_result=None):
                seen.append(fn)
                return [TaskFailure("stub") for _ in payloads]

            def close(self):
                pass

        verify_case_parallel("rbit", jobs=2, pool=_Stub())
        assert seen == [_verify_block_worker]


@pytest.mark.parametrize("name,n", CASES)
def test_one_build_no_temp_cache_serial_certificate(
    name, n, monkeypatch, tmp_path
):
    from repro.tools import verify

    module = getattr(casestudies, name)
    kwargs = _kwargs(name, n)
    build = module.build
    builds = []

    def counting_build(**build_kwargs):
        builds.append(build_kwargs)
        return build(**build_kwargs)

    monkeypatch.setattr(module, "build", counting_build)
    real_tempdir = tempfile.TemporaryDirectory
    prefixes = []

    def recording_tempdir(*args, **kwargs):
        prefixes.append(kwargs.get("prefix"))
        return real_tempdir(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryDirectory", recording_tempdir)
    with WorkerPool(1) as pool:
        case, report = verify_case_parallel(
            name, kwargs, jobs=1, pool=pool
        )
    assert len(builds) == 1
    assert prefixes == []
    assert report.ok
    monkeypatch.undo()

    argv = [name, "--cert-dir", str(tmp_path)]
    if n is not None:
        argv += ["--n", str(n)]
    assert verify.main(argv) == 0
    serial = (tmp_path / f"{name}.cert.json").read_text()
    assert report.proof.to_json() == serial


@pytest.mark.parametrize("fault_seed", [20260807, 5])
def test_fault_schedule_matches_process_pool(fault_seed):
    """Per-block fault seeds do not depend on where the block runs."""
    degraded = 0
    for name in ("memcpy_arm", "binsearch_riscv"):
        runs = {}
        for jobs in (1, 2):
            _case, report = verify_case_parallel(
                name, {"n": 3}, jobs=jobs,
                fault_seed=fault_seed, fault_rate=0.05,
            )
            runs[jobs] = (
                _outcomes(report), len(report.faults), report.proof.to_json()
            )
        assert runs[1] == runs[2], name
        assert runs[1][1] > 0
        degraded += list(runs[1][0].values()).count("degraded")
    # Each seed degrades a block in one of the two cases.
    assert degraded > 0


@pytest.mark.parametrize("allowance", [0, 100_000])
def test_budget_shares_match_process_pool(allowance):
    spec = BudgetSpec(conflict_allowance=allowance)
    runs = {}
    for jobs in (1, 2):
        _case, report = verify_case_parallel(
            "binsearch_riscv", {"n": 3}, jobs=jobs, budget_spec=spec
        )
        snapshot = report.budget.snapshot()
        del snapshot["elapsed_s"]
        runs[jobs] = (_outcomes(report), snapshot, report.proof.to_json())
    assert runs[1] == runs[2]
    if allowance == 0:
        assert "unknown" in runs[1][0].values()
        assert runs[1][1]["exhausted"] == "conflicts"


def test_raising_block_lands_unknown_others_verify(monkeypatch):
    from repro.logic import automation

    with WorkerPool(1) as pool:
        case, _report = verify_case_parallel(
            "binsearch_riscv", {"n": 3}, jobs=1, pool=pool
        )
    target = sorted(case.specs)[1]
    verify_program = automation.verify_program

    def flaky(*args, blocks=None, **kwargs):
        if blocks == [target]:
            raise RuntimeError("block exploded")
        return verify_program(*args, blocks=blocks, **kwargs)

    monkeypatch.setattr(automation, "verify_program", flaky)
    with WorkerPool(1) as pool:
        case, report = verify_case_parallel(
            "binsearch_riscv", {"n": 3}, jobs=1, pool=pool
        )
    assert report.blocks[target].outcome == "unknown"
    assert report.blocks[target].reason == "RuntimeError: block exploded"
    assert report.proof.outcomes[target] == "unknown"
    for addr in case.specs:
        if addr != target:
            assert report.blocks[addr].outcome == "verified"


def test_drain_from_progress_parks_the_rest():
    seen = []

    def progress(addr, outcome):
        seen.append(addr)
        request_shutdown()

    reset_shutdown()
    try:
        with WorkerPool(1) as pool:
            case, report = verify_case_parallel(
                "binsearch_riscv", {"n": 3}, jobs=1, pool=pool,
                progress=progress,
            )
    finally:
        reset_shutdown()
    first, *rest = sorted(case.specs)
    assert seen == [first]
    assert report.blocks[first].outcome == "verified"
    assert rest
    for addr in rest:
        assert report.blocks[addr].outcome == "unknown"
        assert report.blocks[addr].reason == SHUTDOWN_REASON


def test_in_process_results_skip_certificate_json(monkeypatch):
    from repro.logic.proof import Proof

    parse = Proof.from_json
    calls = []

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(Proof, "from_json", staticmethod(counting))
    with WorkerPool(1) as pool:
        verify_case_parallel("memcpy_arm", {"n": 3}, jobs=1, pool=pool)
    assert calls == []

    class _ProcessStandIn:
        """Runs the process worker in this process, as a process pool's
        results would arrive."""

        jobs = 2

        def map_tasks(self, fn, payloads):
            return [fn(p) for p in payloads]

        def map_tasks_graceful(self, fn, payloads, on_result=None):
            return [fn(p) for p in payloads]

        def close(self):
            pass

    case, _report = verify_case_parallel(
        "memcpy_arm", {"n": 3}, jobs=2, pool=_ProcessStandIn()
    )
    assert len(calls) == len(case.specs)
