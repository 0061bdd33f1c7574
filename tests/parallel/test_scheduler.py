"""The worker pool, budget partitioning, and the parallel verify driver."""

from __future__ import annotations

import pytest

from repro.parallel.scheduler import WorkerPool, verify_case_parallel
from repro.resilience import Budget, BudgetSpec


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"task {x}")


class TestWorkerPool:
    def test_jobs_one_never_builds_a_pool(self):
        pool = WorkerPool(1)
        assert pool.unavailable
        assert pool.map_tasks(_double, [1, 2, 3]) == [2, 4, 6]
        assert pool._executor is None

    def test_results_in_payload_order(self):
        with WorkerPool(2) as pool:
            assert pool.map_tasks(_double, list(range(8))) == [
                2 * i for i in range(8)
            ]

    def test_task_exceptions_propagate(self):
        """A genuine task failure is the caller's problem, not the pool's."""
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map_tasks(_boom, [1])
        pool = WorkerPool(1)
        with pytest.raises(ValueError):
            pool.map_tasks(_boom, [1])

    def test_broken_pool_degrades_to_serial(self):
        from concurrent.futures.process import BrokenProcessPool

        class _Broken:
            def submit(self, fn, payload):
                raise BrokenProcessPool("worker died")

            def shutdown(self, **kwargs):
                pass

        pool = WorkerPool(4)
        pool._executor = _Broken()
        assert pool.map_tasks(_double, [5, 6]) == [10, 12]
        assert pool.unavailable  # and it stays in-process from here on
        assert pool.map_tasks(_double, [7]) == [14]


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
        _, serial = verify_case_parallel("rbit", jobs=1)
        _, pooled = verify_case_parallel("rbit", jobs=2)
        assert serial.ok and pooled.ok
        assert {a: b.outcome for a, b in serial.blocks.items()} == {
            a: b.outcome for a, b in pooled.blocks.items()
        }
        assert serial.proof.to_json() == pooled.proof.to_json()

    def test_budget_folds_back_into_run_budget(self):
        spec = BudgetSpec(conflict_allowance=10_000_000)
        _, report = verify_case_parallel("rbit", jobs=2, budget_spec=spec)
        assert report.ok
        assert report.budget is not None
        assert report.budget.spec.conflict_allowance == 10_000_000

    def test_multi_block_certificate_matches_pool(self):
        """Block workers run in address order; a two-block case merges
        into the serial certificate, byte for byte."""
        _, serial = verify_case_parallel("memcpy_arm", {"n": 3}, jobs=1)
        _, pooled = verify_case_parallel("memcpy_arm", {"n": 3}, jobs=2)
        assert len(serial.blocks) == 2
        assert serial.proof.to_json() == pooled.proof.to_json()
