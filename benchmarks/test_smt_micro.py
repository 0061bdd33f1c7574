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
from repro.smt.terms import VAR
from repro.smt.theory import refutes
from tests._reference import whole_goals
from tests.smt.test_enumeration_memo import _loop_goal, m


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


class TestEnumerationMicro:
    def test_each_node_is_rebuilt_once_per_value(self, bench_smt_record, monkeypatch):
        """The loop goals share the invariant's ite and square nodes across
        conjuncts and queries.  Deciding each one twice over fresh solvers
        (``check`` and ``quick_valid``) enumerates every value of the loop
        counter; each distinct ``(node, value)`` must be rebuilt at most
        once.  A count, not a timing."""
        bounds = (5, 8, 9)
        pairs = set()
        for bound in bounds:
            nodes = [t for g in _loop_goal(bound) for t in g.iter_subterms()
                     if t.op != VAR and t.args and m in t.free_vars()]
            pairs.update((t, val) for t in nodes for val in range(bound))
        rebuilds = []
        real = B.rebuild

        def counting(op, args, attrs):
            rebuilds.append(op)
            return real(op, args, attrs)

        monkeypatch.setattr(B, "rebuild", counting)
        clear_check_cache()
        for _ in range(2):
            for bound in bounds:
                goal = _loop_goal(bound)
                assert fresh().check(*goal) == UNSAT
                s = fresh()
                s.add(goal[0])
                assert s.quick_valid(goal[1].args[0])
        bench_smt_record(
            "micro_enumeration_rebuilds",
            rebuilds=len(rebuilds),
            node_values=len(pairs),
        )
        assert 0 < len(rebuilds) <= len(pairs)


class TestKernelCounts:
    def test_verify_all_core_solves_and_memo_computations(
        self, bench_smt_record, monkeypatch
    ):
        """``verify --all --no-cache`` from a cold check cache: at most 70
        queries reach the CDCL core (128 before the constant-fill
        witnesses), and within one memo generation each memoised builder
        constructor computes each distinct argument tuple once.  Counts,
        not timings."""
        import contextlib
        import io

        from repro.smt import sat
        from repro.tools.verify import main
        from tests.smt.test_op_memo import RecordingMemo

        solves = []
        real_solve = sat.SatSolver.solve

        def counting_solve(self, *args, **kwargs):
            solves.append(self)
            return real_solve(self, *args, **kwargs)

        computed = []
        memo = RecordingMemo()
        for name in ("eq", "bvadd", "bvsub", "bvneg"):
            body = getattr(B, f"_{name}")

            def counting(*args, _name=name, _body=body):
                computed.append((memo.generation, _name, args))
                return _body(*args)

            monkeypatch.setattr(B, f"_{name}", counting)
        monkeypatch.setattr(sat.SatSolver, "solve", counting_solve)
        monkeypatch.setattr(B, "_OP_MEMO", memo)
        clear_check_cache()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--all", "--no-cache"]) == 0
        bench_smt_record(
            "kernel_counts_verify_all",
            cdcl_solves=len(solves),
            memo_computations=len(computed),
            memo_entries=len(memo),
            memo_clears=memo.generation,
        )
        assert 0 < len(solves) <= 70
        assert computed and len(set(computed)) == len(computed)


class TestGarbageCounts:
    def test_verify_all_leaves_little_cyclic_garbage(self, bench_smt_record):
        """``verify --all --no-cache`` with the cyclic collector off: the
        pass must leave at most 500 objects for ``gc.collect()`` to find
        (29,496 when ``substitute`` recursed through a closure, one
        ``go → cell → go`` cycle per call).  A count, not a timing."""
        import collections
        import contextlib
        import gc
        import io

        from repro.tools.verify import main

        clear_check_cache()
        gc.collect()
        flags = gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--all", "--no-cache"]) == 0
            found = gc.collect()
            kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()
        bench_smt_record(
            "garbage_counts_verify_all",
            cyclic_objects=found,
            top_kinds=dict(kinds.most_common(5)),
        )
        assert found <= 500
