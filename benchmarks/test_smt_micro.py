"""Micro-benchmarks for the SMT substrate.

Not a paper table — these size the solver underlying every Isla pruning
query and every proof side condition, so regressions here show up
multiplied everywhere else.
"""

import time

import pytest

from repro.smt import builder as B
from repro.smt.solver import (
    SAT,
    UNSAT,
    Solver,
    clear_check_cache,
)
from repro.smt.theory import refutes
from tests._reference import whole_goals


def fresh():
    return Solver(use_global_cache=False)


def _best_of(fn, repeats: int = 3) -> float:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


class TestSolverMicro:
    def test_benchmark_concrete_fold(self, benchmark):
        """Fully concrete arithmetic must never reach the SAT core."""

        def run():
            acc = B.bv(1, 64)
            for i in range(50):
                acc = B.bvadd(B.bvmul(acc, B.bv(3, 64)), B.bv(i, 64))
            assert acc.is_value()

        benchmark(run)

    def test_benchmark_equality_query(self, benchmark):
        x = B.bv_var("mx", 64)
        s = fresh()
        s.add(B.eq(x, B.bv(12345, 64)))

        def run():
            assert s.is_valid(B.bvult(x, B.bv(20000, 64)))

        benchmark(run)

    def test_benchmark_theory_ordering_chain(self, benchmark):
        xs = [B.bv_var(f"mc{i}", 64) for i in range(10)]
        facts = [B.bvult(a, b) for a, b in zip(xs, xs[1:])]
        goal = [*facts, B.not_(B.bvult(xs[0], xs[-1]))]

        def run():
            assert refutes(goal)

        benchmark(run)

    def test_benchmark_sat_model_search(self, benchmark):
        a, b = B.bv_var("ma", 32), B.bv_var("mb", 32)
        constraint = B.and_(
            B.eq(B.bvadd(a, b), B.bv(1000, 32)), B.bvult(a, b)
        )

        def run():
            s = fresh()
            s.add(constraint)
            assert s.check() == SAT

        benchmark(run)

    def test_benchmark_unsat_bitblast(self, benchmark):
        x = B.bv_var("mu", 16)
        # x ^ x != 0 is unsatisfiable; forces a real (small) refutation.
        constraint = B.not_(B.eq(B.bvxor(x, B.bvadd(x, B.bv(0, 16))), B.bv(0, 16)))

        def run():
            s = fresh()
            s.add(constraint)
            assert s.check() == UNSAT

        benchmark(run)

    def test_benchmark_isla_trace_generation(self, benchmark):
        from repro.arch.arm import ArmModel, encode as A
        from repro.isla import Assumptions, trace_for_opcode

        model = ArmModel()
        assm = Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)

        def run():
            trace_for_opcode(model, A.cmp_reg(1, 2), assm)

        benchmark(run)


def _sliced_query_workload(groups: int = 10, queries: int = 24):
    """Path-prefix components never touched by the query: slicing answers
    them from the per-component verdict cache and only solves the small
    query component; whole-goal solving re-solves everything per query."""
    clear_check_cache()
    s = Solver()
    for g in range(groups):
        a = B.bv_var(f"bench_g{g}a", 24)
        b = B.bv_var(f"bench_g{g}b", 24)
        s.add(B.eq(B.bvadd(a, b), B.bv(0x5A5A, 24)))
        s.add(B.bvult(B.bvxor(a, B.bv(g * 911 + 3, 24)), b))
    q = B.bv_var("bench_q", 24)
    anchor = B.bv_var("bench_g0a", 24)
    for j in range(queries):
        cond = B.bvult(
            B.bvadd(q, B.bv(j, 24)), B.bvxor(anchor, B.bv(j * 13 + 1, 24))
        )
        assert s.check(cond) == SAT
    return s


class TestSlicingMicro:
    def test_sliced_vs_whole_queries(self, bench_smt_record):
        sliced_t = _best_of(_sliced_query_workload)
        with whole_goals():
            whole_t = _best_of(_sliced_query_workload)
        probe = _sliced_query_workload()
        speedup = whole_t / sliced_t
        stats = probe.stats
        hit_rate = stats["slice_cache_hits"] / max(1, stats["slice_components"])
        bench_smt_record(
            "micro_sliced_queries",
            queries=stats["checks"],
            sliced_s=round(sliced_t, 6),
            whole_s=round(whole_t, 6),
            speedup=round(speedup, 2),
            sliced_checks=stats["sliced_checks"],
            slice_components=stats["slice_components"],
            slice_cache_hits=stats["slice_cache_hits"],
            slice_solves=stats["slice_solves"],
            slice_cache_hit_rate=round(hit_rate, 3),
        )
        assert speedup >= 1.5, f"slicing speedup {speedup:.2f}x < 1.5x"
        assert hit_rate > 0.5  # prefix components answered from cache

    def test_sliced_verdicts_match_whole(self):
        a = B.bv_var("sv_a", 16)
        b = B.bv_var("sv_b", 16)
        c = B.bv_var("sv_c", 16)
        constraints = [
            B.bvult(a, B.bv(100, 16)),
            B.eq(B.bvadd(b, B.bv(1, 16)), B.bv(0, 16)),
            B.bvult(B.bvxor(c, B.bv(3, 16)), B.bv(50, 16)),
        ]
        queries = [
            B.bvult(a, B.bv(5, 16)),
            B.eq(b, B.bv(0xFFFF, 16)),
            B.not_(B.bvult(c, B.bv(0x8000, 16))),
            B.eq(B.bvand(a, B.bv(1, 16)), B.bv(1, 16)),
        ]
        sliced = Solver(use_global_cache=False)
        whole = Solver(use_global_cache=False)
        for t in constraints:
            sliced.add(t)
            whole.add(t)
        for q in queries:
            verdict = sliced.check(q)
            with whole_goals():
                assert verdict == whole.check(q)
