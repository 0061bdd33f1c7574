"""Budget partitioning and the per-block verify driver."""

from __future__ import annotations

import pytest

from repro import casestudies
from repro.parallel.scheduler import verify_case_parallel
from repro.resilience import Budget, BudgetSpec


def _open_handles() -> int:
    from repro.cache import store

    return len(store._HANDLES)


def _serial_report(name: str, kwargs: dict | None = None):
    """The serial CLI's run: build once, verify the whole program."""
    from repro.logic.automation import verify_program
    from repro.parallel.config import configured
    from repro.parallel.scheduler import pc_for

    module = getattr(casestudies, name)
    with configured():
        case = module.build(**(kwargs or {}))
    return verify_program(case.frontend.traces, case.specs, pc_for(module))


class TestBudgetPartition:
    def test_conflicts_divided_with_deterministic_remainder(self):
        spec = BudgetSpec(conflict_allowance=10, deadline_s=2.0)
        shares = spec.partition(3)
        assert [s.conflict_allowance for s in shares] == [4, 3, 3]
        assert all(s.deadline_s == 2.0 for s in shares)

    def test_per_query_knobs_replicated(self):
        spec = BudgetSpec(conflict_allowance=100, query_conflicts=7, path_allowance=5)
        for share in spec.partition(4):
            assert share.query_conflicts == 7
            assert share.path_allowance == 5

    def test_unlimited_stays_unlimited(self):
        shares = BudgetSpec().partition(3)
        assert all(s.conflict_allowance is None for s in shares)

    def test_partition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BudgetSpec().partition(0)

    def test_absorb_sums_usage_and_keeps_first_exhaustion(self):
        run = Budget(BudgetSpec(conflict_allowance=100))
        run.absorb({"conflicts_used": 30, "paths_used": 2, "exhausted": None})
        run.absorb({"conflicts_used": 20, "paths_used": 1, "exhausted": "conflicts"})
        run.absorb({"conflicts_used": 5, "paths_used": 0, "exhausted": "deadline"})
        assert run.conflicts_used == 55
        assert run.paths_used == 3
        assert run.exhausted == "conflicts"  # sticky, first report wins


class TestVerifyCaseParallel:
    def test_serial_fallback_matches_pool(self):
        """The per-block driver agrees with the serial whole-program run."""
        serial = _serial_report("rbit")
        _, pooled = verify_case_parallel("rbit")
        assert serial.ok and pooled.ok
        assert {a: b.outcome for a, b in serial.blocks.items()} == {
            a: b.outcome for a, b in pooled.blocks.items()
        }
        assert serial.proof.to_json() == pooled.proof.to_json()

    def test_budget_folds_back_into_run_budget(self):
        spec = BudgetSpec(conflict_allowance=10_000_000)
        _, report = verify_case_parallel("rbit", budget_spec=spec)
        assert report.ok
        assert report.budget is not None
        assert report.budget.spec.conflict_allowance == 10_000_000

    def test_multi_block_certificate_matches_pool(self):
        """Blocks run in address order; a two-block case merges into the
        serial certificate, byte for byte."""
        serial = _serial_report("memcpy_arm", {"n": 3})
        _, pooled = verify_case_parallel("memcpy_arm", {"n": 3})
        assert len(serial.blocks) == 2
        assert serial.proof.to_json() == pooled.proof.to_json()


class TestEphemeralHandles:
    """A ``cache=None`` job opens no cache handle."""

    def test_serial_fallback_leaves_no_handle(self):
        before = _open_handles()
        for _ in range(3):
            _, report = verify_case_parallel("rbit")
            assert report.ok
        assert _open_handles() == before
