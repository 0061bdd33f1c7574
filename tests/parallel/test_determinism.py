"""Run-to-run determinism of the verify driver.

The whole case-study suite runs twice with a fixed fault seed; outcome
maps and proof certificates must be byte-identical.  This is the
end-to-end guarantee the driver's design (address-ordered blocks, one
fault injector per run started on an empty check cache) exists to
provide.  And without faults, the driver's certificate is the CLI's, byte
for byte — the serial = daemon invariant.
"""

from __future__ import annotations

import inspect

import pytest

from repro import casestudies
from repro.logic.proof import Proof
from repro.casestudies import verify_case
from repro.tools import verify

FAULT_SEED = 20260807


def _kwargs(module):
    if "n" in inspect.signature(module.build).parameters:
        return {"n": 3}
    return {}


def _run_suite(fault_seed=None):
    results = {}
    for name in casestudies.__all__:
        module = getattr(casestudies, name)
        _, report = verify_case(
            name,
            _kwargs(module),
            fault_seed=fault_seed,
            fault_rate=0.02,
        )
        results[name] = (
            {addr: block.outcome for addr, block in report.blocks.items()},
            report.proof.to_json(),
        )
    return results


def test_suite_is_deterministic_across_runs():
    first = _run_suite()
    second = _run_suite()
    assert set(first) == set(second)
    for name in first:
        outcomes_a, proof_a = first[name]
        outcomes_b, proof_b = second[name]
        assert outcomes_a == outcomes_b, f"{name}: outcome map changed"
        assert proof_a == proof_b, f"{name}: certificate changed"
    # And the suite actually verified (no silently-degraded baseline).
    for name, (outcomes, _) in first.items():
        assert outcomes, f"{name}: no blocks"
        assert all(o == "verified" for o in outcomes.values()), name


def test_suite_is_deterministic_under_fault_injection():
    """Same seed → same schedule → same outcomes and certificates, even
    though individual runs may degrade blocks."""
    first = _run_suite(fault_seed=FAULT_SEED)
    second = _run_suite(fault_seed=FAULT_SEED)
    assert first == second


@pytest.mark.parametrize("name", ["memcpy_arm", "binsearch_riscv", "memcpy_ppc"])
def test_jobs_invariance(name, tmp_path):
    """The ``tools/verify --cert-dir`` certificate and the driver's are
    byte-identical."""
    module = getattr(casestudies, name)
    argv = [name, "--no-cache", "--cert-dir", str(tmp_path)]
    if _kwargs(module):
        argv += ["--n", "3"]
    assert verify.main(argv) == 0
    text = (tmp_path / f"{name}.cert.json").read_text()
    serial = Proof.from_json(text)
    _, pooled = verify_case(name, _kwargs(module))
    assert text == pooled.proof.to_json()
    assert serial.outcomes == {
        a: b.outcome for a, b in pooled.blocks.items()
    }
