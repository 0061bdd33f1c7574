"""Budget partitioning and absorption: the arithmetic the fleet supervisor
uses to split a fleet-wide spec across shards and fold consumption back."""

from __future__ import annotations

import pytest

from repro.resilience import Budget, BudgetSpec


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
