"""The one verify driver against the CLI, budgets and cache handles."""

from __future__ import annotations

from repro.casestudies import verify_case
from repro.resilience import BudgetSpec


def _open_handles() -> int:
    from repro.cache import store

    return len(store._HANDLES)


def _cli_certificate(tmp_path, name: str, n: int | None = None) -> str:
    """The certificate ``tools/verify --no-cache --cert-dir`` writes."""
    from repro.tools import verify

    argv = [name, "--no-cache", "--cert-dir", str(tmp_path)]
    if n is not None:
        argv += ["--n", str(n)]
    assert verify.main(argv) == 0
    return (tmp_path / f"{name}.cert.json").read_text()


class TestVerifyCaseParallel:
    def test_serial_fallback_matches_pool(self, tmp_path):
        """The driver's certificate is the CLI's, byte for byte."""
        _, report = verify_case("rbit")
        assert report.ok
        assert report.proof.to_json() == _cli_certificate(tmp_path, "rbit")

    def test_budget_folds_back_into_run_budget(self):
        """The job's spec becomes one run budget, shared by its blocks."""
        spec = BudgetSpec(conflict_allowance=10_000_000)
        _, report = verify_case("memcpy_arm", {"n": 3}, budget_spec=spec)
        assert report.ok
        assert len(report.blocks) == 2
        assert report.budget is not None
        assert report.budget.spec == spec

    def test_multi_block_certificate_matches_pool(self, tmp_path):
        """Blocks run in address order; a two-block case's certificate is
        the CLI's, byte for byte."""
        _, report = verify_case("memcpy_arm", {"n": 3})
        assert len(report.blocks) == 2
        assert report.proof.to_json() == _cli_certificate(tmp_path, "memcpy_arm", 3)


class TestEphemeralHandles:
    """A ``cache=None`` job opens no cache handle."""

    def test_serial_fallback_leaves_no_handle(self):
        before = _open_handles()
        for _ in range(3):
            _, report = verify_case("rbit")
            assert report.ok
        assert _open_handles() == before
