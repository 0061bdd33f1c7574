"""The driver verifies a job's blocks on the case it already built.

:func:`~repro.casestudies.verify_case` builds the case once and proves
every block on it in one governed run: no per-block rebuild, no temporary
cache root, no certificate JSON round trip.  Certificates equal the CLI's,
a fault seed and a run budget give the same outcomes whatever the
solver's caches hold, and a raising block or a drain lands ``unknown``.
"""

from __future__ import annotations

import tempfile

import pytest

from repro import casestudies
from repro.casestudies import verify_case
from repro.resilience import (
    SHUTDOWN_REASON,
    BudgetSpec,
    request_shutdown,
    reset_shutdown,
)
from repro.smt.solver import clear_check_cache

CASES = [("memcpy_arm", 3), ("binsearch_riscv", 3), ("pkvm", None)]


def _kwargs(name: str, n: int | None) -> dict:
    from repro.tools.verify import _build_kwargs

    return _build_kwargs(getattr(casestudies, name), n)


def _outcomes(report) -> dict:
    return {addr: block.outcome for addr, block in report.blocks.items()}


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
    case, report = verify_case(name, kwargs)
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
def test_fault_schedule_ignores_warm_caches(fault_seed):
    """A fault seed gives the same schedule on a cold solver cache and on
    one a fault-free run of the same case has just warmed."""
    degraded = 0
    for name in ("memcpy_arm", "binsearch_riscv"):
        runs = []
        clear_check_cache()
        for warm_up in (False, True):
            if warm_up:
                verify_case(name, {"n": 3})
            _case, report = verify_case(
                name, {"n": 3}, fault_seed=fault_seed, fault_rate=0.05
            )
            runs.append(
                (_outcomes(report), len(report.faults), report.proof.to_json())
            )
        assert runs[0] == runs[1], name
        assert runs[0][1] > 0
        degraded += list(runs[0][0].values()).count("degraded")
    # Each seed degrades a block in one of the two cases.
    assert degraded > 0


@pytest.mark.parametrize("allowance", [0, 100_000])
def test_budget_shares_ignore_warm_caches(allowance):
    spec = BudgetSpec(conflict_allowance=allowance)
    runs = []
    clear_check_cache()
    for _ in range(2):
        _case, report = verify_case(
            "binsearch_riscv", {"n": 3}, budget_spec=spec
        )
        snapshot = report.budget.snapshot()
        del snapshot["elapsed_s"]
        runs.append((_outcomes(report), snapshot, report.proof.to_json()))
    assert runs[0] == runs[1]
    if allowance == 0:
        assert "unknown" in runs[0][0].values()
        assert runs[0][1]["exhausted"] == "conflicts"


def test_raising_block_lands_unknown_others_verify(monkeypatch):
    from repro.logic.automation import ProofEngine
    from repro.logic.checker import check_proof

    case, _report = verify_case("binsearch_riscv", {"n": 3})
    target = sorted(case.specs)[1]
    verify_block = ProofEngine.verify_block

    def flaky(self, addr):
        verify_block(self, addr)
        if addr == target:
            # After the block's proof steps are recorded: they must go.
            raise RuntimeError("block exploded")

    monkeypatch.setattr(ProofEngine, "verify_block", flaky)
    case, report = verify_case("binsearch_riscv", {"n": 3})
    assert report.blocks[target].outcome == "unknown"
    assert report.blocks[target].reason == "RuntimeError: block exploded"
    assert report.proof.outcomes[target] == "unknown"
    assert target not in report.proof.blocks_verified
    assert not [step for step in report.proof.steps if step.block == target]
    for addr in case.specs:
        if addr != target:
            assert report.blocks[addr].outcome == "verified"
    check_proof(report.proof, expected_blocks=set(case.specs))


def test_drain_from_progress_parks_the_rest():
    seen = []

    def progress(addr, outcome):
        seen.append(addr)
        request_shutdown()

    reset_shutdown()
    try:
        case, report = verify_case(
            "binsearch_riscv", {"n": 3}, progress=progress
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
    verify_case("memcpy_arm", {"n": 3})
    assert calls == []
