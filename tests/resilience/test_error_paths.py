"""Error paths that used to crash, swallow, or leak — now typed and tested:
solver misuse, the bounded check cache, the unsupported-operation counter,
and the executor's dead-path / width-mismatch / path-budget failures."""

import pytest

from repro.arch.riscv import RiscvModel, encode as RV
from repro.isla import Assumptions, IslaError, PathBudgetExceeded, trace_for_opcode
from repro.isla.executor import SymbolicMachine
from repro.itl.events import Reg
from repro.resilience import Budget, BudgetSpec, FaultInjector, inject
from repro.sail.iface import ModelError
from repro.smt import builder as B
from repro.smt.solver import (
    DEFAULT_CACHE_CAPACITY,
    SAT,
    UNKNOWN,
    UNSAT,
    LruCheckCache,
    Solver,
    check_cache_stats,
    clear_check_cache,
    set_check_cache_capacity,
)


class TestSolverMisuse:
    def test_pop_without_push(self):
        solver = Solver(use_global_cache=False)
        with pytest.raises(RuntimeError, match="pop without matching push"):
            solver.pop()

    def test_pop_balanced_ok(self):
        solver = Solver(use_global_cache=False)
        solver.push()
        solver.pop()
        with pytest.raises(RuntimeError):
            solver.pop()

    def test_model_before_any_check(self):
        solver = Solver(use_global_cache=False)
        with pytest.raises(RuntimeError, match="no model available"):
            solver.model()

    def test_model_after_unsat_check(self):
        solver = Solver(use_global_cache=False)
        x = B.bv_var("x", 8)
        solver.add(B.eq(x, B.bv(1, 8)), B.eq(x, B.bv(2, 8)))
        assert solver.check() == UNSAT
        with pytest.raises(RuntimeError, match="no model available"):
            solver.model()

    def test_model_after_injected_unknown(self):
        solver = Solver(use_global_cache=False)
        x = B.bv_var("x", 8)
        solver.add(B.eq(x, B.bv(1, 8)))
        with inject(FaultInjector(0, rate=1.0, sites=("solver.check",))):
            assert solver.check() == UNKNOWN
        assert solver.last_unknown_reason == "fault:solver.check"
        with pytest.raises(RuntimeError, match="no model available"):
            solver.model()

    def test_add_non_boolean_rejected(self):
        solver = Solver(use_global_cache=False)
        with pytest.raises(TypeError):
            solver.add(B.bv(1, 8))


class TestLruCheckCache:
    def test_capacity_bound_and_eviction_stats(self):
        cache = LruCheckCache(capacity=2)
        cache.put(frozenset({1}), "sat")
        cache.put(frozenset({2}), "unsat")
        cache.put(frozenset({3}), "sat")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(frozenset({1})) is None  # oldest evicted
        assert cache.get(frozenset({3})) == "sat"

    def test_get_refreshes_recency(self):
        cache = LruCheckCache(capacity=2)
        cache.put(frozenset({1}), "sat")
        cache.put(frozenset({2}), "unsat")
        assert cache.get(frozenset({1})) == "sat"  # 1 is now most recent
        cache.put(frozenset({3}), "sat")
        assert cache.get(frozenset({2})) is None
        assert cache.get(frozenset({1})) == "sat"

    def test_unbounded_when_capacity_none(self):
        cache = LruCheckCache(capacity=None)
        for i in range(100):
            cache.put(frozenset({i}), "sat")
        assert len(cache) == 100
        assert cache.stats()["evictions"] == 0

    def test_stats_shape(self):
        cache = LruCheckCache(capacity=4)
        cache.put(frozenset({1}), "sat")
        cache.get(frozenset({1}))
        cache.get(frozenset({2}))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == 4

    def test_injected_drop_forces_recomputation_same_answer(self):
        solver = Solver()  # global cache on
        x = B.bv_var("lru_drop_probe", 8)
        solver.add(B.eq(x, B.bv(7, 8)))
        assert solver.check() == SAT
        before = check_cache_stats()["injected_drops"]
        with inject(FaultInjector(0, rate=1.0, sites=("solver.cache",))):
            assert solver.check() == SAT  # recomputed, identical result
        assert check_cache_stats()["injected_drops"] == before + 1

    def test_global_cache_rebound(self):
        clear_check_cache()
        try:
            solver = Solver()
            for i in range(8):
                x = B.bv_var(f"rebound{i}", 8)
                solver.push()
                solver.add(B.eq(x, B.bv(i, 8)))
                assert solver.check() == SAT
                solver.pop()
            assert check_cache_stats()["entries"] == 8
            set_check_cache_capacity(3)
            stats = check_cache_stats()
            assert stats["entries"] == 3
            assert stats["evictions"] >= 5
        finally:
            clear_check_cache()
            set_check_cache_capacity(DEFAULT_CACHE_CAPACITY)


class TestUnsupportedOperations:
    def test_unsupported_counter_and_reason(self):
        solver = Solver(use_global_cache=False)
        x = B.bv_var("x", 8)
        y = B.bv_var("y", 8)
        solver.add(B.eq(B.bvudiv(x, y), B.bv(3, 8)))
        assert solver.check() == UNKNOWN
        assert solver.stats["unsupported"] == 1
        assert solver.stats["unknown_results"] == 1
        assert solver.last_unknown_reason == "unsupported-operation"

    def test_unsupported_short_circuits_the_ladder(self):
        # Escalating conflict budgets cannot fix an encoding failure, so a
        # governed solver must not multiply-count one bad query.
        budget = Budget(BudgetSpec())
        solver = Solver(use_global_cache=False, budget=budget)
        x = B.bv_var("x", 8)
        y = B.bv_var("y", 8)
        solver.add(B.eq(B.bvurem(x, y), B.bv(3, 8)))
        assert solver.check() == UNKNOWN
        assert solver.stats["unsupported"] == 1
        assert solver.last_unknown_reason == "unsupported-operation"


def _fork_opcode():
    """A conditional branch on an unconstrained register: two feasible paths."""
    return RV.beqz("a2", 28)


class TestExecutorErrorPaths:
    def test_dead_path_raises(self):
        contradiction = Assumptions().constrain(
            "x12",
            lambda v: B.and_(B.eq(v, B.bv(0, 64)), B.eq(v, B.bv(1, 64))),
        )
        with pytest.raises(IslaError, match="dead path"):
            trace_for_opcode(RiscvModel(), _fork_opcode(), contradiction)

    def test_pinned_width_mismatch_raises(self):
        bad = Assumptions().pin("x12", 0, 32)  # x12 is 64-bit
        with pytest.raises(IslaError, match="width mismatch"):
            trace_for_opcode(RiscvModel(), _fork_opcode(), bad)

    def test_write_reg_width_mismatch_is_model_error(self):
        machine = SymbolicMachine(RiscvModel(), Assumptions(), forced=())
        with pytest.raises(ModelError, match="width"):
            machine.write_reg(Reg.parse("x12"), B.bv(0, 32))

    def test_path_budget_raises_with_partial(self):
        budget = Budget(BudgetSpec(path_allowance=1))
        with pytest.raises(PathBudgetExceeded) as exc:
            trace_for_opcode(RiscvModel(), _fork_opcode(), budget=budget)
        assert exc.value.partial is not None
        assert exc.value.partial.paths == 1
        assert exc.value.partial.exhausted == "paths"
        assert budget.exhausted == "paths"

    def test_path_budget_partial_on_exhaustion(self):
        budget = Budget(BudgetSpec(path_allowance=1))
        result = trace_for_opcode(
            RiscvModel(), _fork_opcode(), budget=budget, partial_on_exhaustion=True
        )
        assert result.exhausted == "paths"
        assert result.paths == 1

    def test_complete_enumeration_not_marked_exhausted(self):
        result = trace_for_opcode(RiscvModel(), _fork_opcode())
        assert result.exhausted is None
        assert result.paths == 2

    def test_legacy_max_paths_still_raises_isla_error(self):
        # PathBudgetExceeded subclasses IslaError: pre-governance callers
        # catching IslaError keep working.
        with pytest.raises(IslaError):
            trace_for_opcode(RiscvModel(), _fork_opcode(), max_paths=1)
