"""Tests for the SAT core, bit-blaster, theory layer and solver façade."""

import pytest

from repro.smt import builder as B
from repro.smt.sat import SatSolver, luby
from repro.smt.solver import SAT, UNKNOWN, UNSAT, Solver, check_model


def fresh():
    return Solver(use_global_cache=False)


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestSatCore:
    def test_empty_is_sat(self):
        assert SatSolver().solve() is True

    def test_unit(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([v])
        assert s.solve() is True
        assert s.model()[v] is True

    def test_contradictory_units(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([v])
        s.add_clause([-v])
        assert s.solve() is False

    def test_empty_clause_unsat(self):
        s = SatSolver()
        s.add_clause([])
        assert s.solve() is False

    def test_tautology_ignored(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([v, -v])
        assert s.solve() is True

    def test_propagation_chain(self):
        s = SatSolver()
        vs = [s.new_var() for _ in range(10)]
        s.add_clause([vs[0]])
        for a, b in zip(vs, vs[1:]):
            s.add_clause([-a, b])  # a -> b
        assert s.solve() is True
        assert all(s.model()[v] for v in vs)

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: classic small UNSAT instance needing search.
        s = SatSolver()
        p = {(i, j): s.new_var() for i in range(3) for j in range(2)}
        for i in range(3):
            s.add_clause([p[i, 0], p[i, 1]])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-p[i1, j], -p[i2, j]])
        assert s.solve() is False

    def test_xor_chain_sat(self):
        s = SatSolver()
        a, b, c = (s.new_var() for _ in range(3))
        # a xor b, b xor c as CNF
        s.add_clause([a, b])
        s.add_clause([-a, -b])
        s.add_clause([b, c])
        s.add_clause([-b, -c])
        assert s.solve() is True
        m = s.model()
        assert m[a] != m[b] and m[b] != m[c]

    def test_conflict_budget_returns_none(self):
        # A hard pigeonhole instance with a tiny budget must give up.
        s = SatSolver()
        n = 6
        p = {(i, j): s.new_var() for i in range(n + 1) for j in range(n)}
        for i in range(n + 1):
            s.add_clause([p[i, j] for j in range(n)])
        for j in range(n):
            for i1 in range(n + 1):
                for i2 in range(i1 + 1, n + 1):
                    s.add_clause([-p[i1, j], -p[i2, j]])
        assert s.solve(max_conflicts=3) is None


class TestSolverFacade:
    def test_empty_sat(self):
        assert fresh().check() == SAT

    def test_assert_bool_only(self):
        with pytest.raises(TypeError):
            fresh().add(B.bv(1, 8))

    def test_eq_constraint_model(self):
        s = fresh()
        x = B.bv_var("sx", 64)
        s.add(B.eq(x, B.bv(42, 64)))
        assert s.check() == SAT
        assert s.model()[x] == 42

    def test_unsat_pair(self):
        s = fresh()
        x = B.bv_var("sx", 64)
        s.add(B.eq(x, B.bv(1, 64)), B.eq(x, B.bv(2, 64)))
        assert s.check() == UNSAT

    def test_push_pop(self):
        s = fresh()
        x = B.bv_var("sx", 8)
        s.add(B.bvult(x, B.bv(10, 8)))
        s.push()
        s.add(B.bvult(B.bv(20, 8), x))
        assert s.check() == UNSAT
        s.pop()
        assert s.check() == SAT

    def test_pop_without_push(self):
        with pytest.raises(RuntimeError):
            fresh().pop()

    def test_is_valid_basic(self):
        s = fresh()
        x = B.bv_var("sx", 64)
        s.add(B.eq(x, B.bv(5, 64)))
        assert s.is_valid(B.bvult(x, B.bv(6, 64)))
        assert not s.is_valid(B.bvult(x, B.bv(5, 64)))

    def test_model_checks_against_interpreter(self):
        s = fresh()
        a, b = B.bv_var("ma", 16), B.bv_var("mb", 16)
        goal = [B.eq(B.bvadd(a, b), B.bv(500, 16)), B.bvult(a, b)]
        s.add(*goal)
        assert s.check() == SAT
        assert check_model(goal, s.model())

    def test_global_cache_hits(self):
        from repro.smt.solver import clear_check_cache

        clear_check_cache()
        x = B.bv_var("cachex", 32)
        c = B.eq(x, B.bv(7, 32))
        s1 = Solver()
        s1.add(c)
        s1.check()
        s2 = Solver()
        s2.add(c)
        s2.check()
        assert s2.stats["cache_hits"] == 1

    def test_model_after_cached_check_recomputes(self):
        from repro.smt.solver import clear_check_cache

        clear_check_cache()
        x = B.bv_var("cachem", 32)
        c = B.eq(x, B.bv(9, 32))
        s1 = Solver()
        s1.add(c)
        assert s1.check() == SAT
        s2 = Solver()
        s2.add(c)
        assert s2.check() == SAT
        assert s2.model()[x] == 9


class TestTheoryLayer:
    """Relational goals that must be decided without SAT search."""

    def test_ult_transitivity(self):
        a, b, c = (B.bv_var(n, 64) for n in "abc")
        s = fresh()
        s.add(B.bvult(a, b), B.bvult(b, c))
        assert s.is_valid(B.bvult(a, c))

    def test_ult_antisymmetry(self):
        a, b = (B.bv_var(n, 64) for n in "ab")
        s = fresh()
        s.add(B.bvult(a, b), B.bvult(b, a))
        assert s.check() == UNSAT

    def test_ule_cycle_is_sat(self):
        a, b = (B.bv_var(n, 64) for n in "ab")
        s = fresh()
        s.add(B.bvule(a, b), B.bvule(b, a))
        assert s.check() == SAT  # a == b

    def test_mixed_cycle_unsat(self):
        a, b, c = (B.bv_var(n, 64) for n in "abc")
        s = fresh()
        s.add(B.bvule(a, b), B.bvule(b, c), B.bvult(c, a))
        assert s.check() == UNSAT

    def test_signed_cycle_unsat(self):
        a, b = (B.bv_var(n, 64) for n in "ab")
        s = fresh()
        s.add(B.bvslt(a, b), B.bvslt(b, a))
        assert s.check() == UNSAT

    def test_equality_propagates_into_order(self):
        a, b, c = (B.bv_var(n, 64) for n in "abc")
        s = fresh()
        s.add(B.eq(a, b), B.bvult(b, c))
        assert s.is_valid(B.bvult(a, c))

    def test_interval_bound(self):
        a = B.bv_var("a", 64)
        s = fresh()
        s.add(B.bvult(a, B.bv(10, 64)))
        assert s.is_valid(B.bvule(a, B.bv(9, 64)))

    def test_interval_through_add(self):
        a = B.bv_var("a", 64)
        s = fresh()
        s.add(B.bvult(a, B.bv(100, 64)))
        assert s.is_valid(B.bvult(B.bvadd(a, B.bv(1, 64)), B.bv(101, 64)))

    def test_disequality_with_pinned_points(self):
        a, b = (B.bv_var(n, 32) for n in "ab")
        s = fresh()
        s.add(B.eq(a, B.bv(5, 32)), B.eq(b, B.bv(5, 32)))
        assert s.check(B.not_(B.eq(a, b))) == UNSAT
