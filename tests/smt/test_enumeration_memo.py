"""Small-domain enumeration's memos.

``solver._instantiate`` substitutes a binding ``var := value`` through one
``builder.substitute`` memo per binding, shared by every conjunct, query
and fresh solver.  The memo must be an exact stand-in for the substitution
it caches, bounded, emptied by ``clear_check_cache``, and invisible in
verdicts; a subterm shared by several conjuncts is rebuilt once per
binding.  ``_enumerable_var`` keeps each term's variable order in a memo
and must pick the split the sorting reference picks.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.casestudies import verify_case
from repro.smt import builder as B
from repro.smt import evaluate
from repro.smt import solver as S
from repro.smt import terms as T
from repro.smt.solver import SAT, UNSAT, Solver, clear_check_cache
from repro.smt.terms import FALSE, TRUE
from repro.smt.theory import saturated
from tests._reference import sorting_enumerable_var

from .test_properties import VARS, WIDTH, bool_terms, bv_terms, envs

m = B.bv_var("enum_m", 64)


def _loop_goal(bound: int = 8) -> list:
    """A loop counter ``0 <= m < bound`` and the negation of an ite-heavy
    invariant the interval layer alone cannot decide (``m * m`` has no
    useful interval), so refuting it needs enumeration over ``m``."""
    square = B.bvmul(m, m)
    inv = B.bvult(
        B.ite(B.bvult(m, B.bv(4, 64)), square, B.bvadd(square, B.bv(1, 64))),
        B.bv(bound * bound + 1, 64),
    )
    return [B.bvult(m, B.bv(bound, 64)), B.not_(inv)]


def _expected(goal, var, val):
    """``_instantiate`` spelled out with a fresh, unmemoised substitution."""
    binding = B.bv(val, var.sort.width)
    out = []
    for g in goal:
        t = B.substitute(g, {var: binding})
        if t is FALSE:
            return None
        if t is not TRUE:
            out.append(t)
    return out


def _counting_rebuild(monkeypatch):
    calls = []
    real = B.rebuild

    def counting(op, args, attrs):
        calls.append((op, args))
        return real(op, args, attrs)

    monkeypatch.setattr(B, "rebuild", counting)
    return calls


class TestSubstituteValue:
    @given(st.one_of(bv_terms(), bool_terms()), st.sampled_from(VARS), envs)
    @settings(max_examples=200, deadline=None)
    def test_matches_substitute_and_evaluation(self, term, var, env):
        value = B.bv(env[var], WIDTH)
        out = S._instantiate([term], var, env[var])
        assert out == _expected([term], var, env[var])
        memo = S._BINDING_MEMOS[var, value]
        expected = B.substitute(term, {var: value})
        assert memo[term] is expected
        assert all(memo[t] is B.substitute(t, {var: value}) for t in memo)
        assert evaluate(expected, env) == evaluate(term, env)

    def test_memo_is_bounded(self, monkeypatch):
        clear_check_cache()
        monkeypatch.setattr(S, "_MEMO_LIMIT", 40)
        sizes = []
        for bound in range(2, 30):
            goal = _loop_goal(bound)
            for val in range(bound):
                S._instantiate(goal, m, val)
                S._enumerable_var(goal, saturated(goal))
                nodes = sum(map(len, S._BINDING_MEMOS.values()))
                assert nodes == S._memo_nodes
                sizes.append(nodes)
                assert len(S._SPLIT_ORDER) <= S._MEMO_LIMIT + 1
        # Each call adds at most one goal's nodes past the bound, and the
        # memo was emptied at least once.
        assert max(sizes) <= S._MEMO_LIMIT + 20
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_clear_check_cache_empties_memo(self):
        goal = _loop_goal()
        S._instantiate(goal, m, 3)
        S._enumerable_var(goal, saturated(goal))
        assert S._BINDING_MEMOS and S._memo_nodes > 0 and S._SPLIT_ORDER
        clear_check_cache()
        assert not S._BINDING_MEMOS and S._memo_nodes == 0 and not S._SPLIT_ORDER


class TestEnumerationMemo:
    def test_second_fresh_solver_makes_no_substitute_calls(self, monkeypatch):
        calls = []
        real = B.substitute

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(B, "substitute", counting)
        clear_check_cache()
        goal = _loop_goal()
        assert Solver(use_global_cache=False).check(*goal) == UNSAT
        assert calls, "the goal must be decided by enumeration"
        calls.clear()
        assert Solver(use_global_cache=False).check(*goal) == UNSAT
        assert calls == []

    def test_shared_subterm_is_rebuilt_once_per_binding(self, monkeypatch):
        k = B.bv_var("enum_k", 64)
        shared = B.bvmul(m, k)
        goal = [
            B.bvult(m, B.bv(6, 64)),
            B.bvult(shared, B.bv(1000, 64)),
            B.bvult(B.bvadd(shared, B.bv(7, 64)), B.bv(2000, 64)),
        ]
        clear_check_cache()
        calls = _counting_rebuild(monkeypatch)
        for _ in range(2):
            for val in range(6):
                S._instantiate(goal, m, val)
        values = [a.value for op, args in calls if op == T.BVMUL
                  for a in args if a.is_value()]
        assert sorted(values) == list(range(6))
        # Checks over fresh solvers reuse the same memo: no rebuild at all.
        calls.clear()
        Solver(use_global_cache=False).check(*goal)
        Solver(use_global_cache=False).check(*goal)
        assert [op for op, _ in calls if op == T.BVMUL] == []

    def test_memcpy_instantiations_match_fresh_substitution(self, monkeypatch):
        real = S._instantiate
        checked = []

        def checking(goal, var, val):
            out = real(goal, var, val)
            expected = _expected(goal, var, val)
            assert (out is None) == (expected is None)
            if out is not None:
                assert len(out) == len(expected)
                assert all(a is b for a, b in zip(out, expected))
            checked.append(var)
            return out

        clear_check_cache()
        monkeypatch.setattr(S, "_instantiate", checking)
        _case, report = verify_case("memcpy_arm", {"n": 6})
        assert report.ok
        assert len(checked) > 50

    def test_check_and_quick_valid_verdicts_cold_vs_warm(self):
        cases = [_loop_goal(8), _loop_goal(5), _loop_goal(9)]
        # m = 8 breaks m * m < 64: not valid.
        invalid = [
            [B.bvult(m, B.bv(9, 64)), B.not_(B.bvult(B.bvmul(m, m), B.bv(64, 64)))]
        ]

        def verdicts():
            out = []
            for goal in cases + invalid:
                out.append(Solver(use_global_cache=False).check(*goal))
                s = Solver(use_global_cache=False)
                s.add(goal[0])
                out.append(s.quick_valid(goal[1].args[0]))
            return out

        clear_check_cache()
        cold = verdicts()
        warm = verdicts()
        assert cold == warm
        assert cold[:6] == [UNSAT, True] * 3
        assert cold[6:] == [SAT, False]


# Variables that tie on name or on width, so the split order's tie-breaks
# decide between equally tight candidates.
SPLIT_VARS = [B.bv_var(name, w) for name in ("sa", "sb", "sc") for w in (8, 16)]


@st.composite
def split_conjuncts(draw):
    kind = draw(st.sampled_from(["upper", "lower", "relation", "pair", "mixed"]))
    v = draw(st.sampled_from(SPLIT_VARS))
    w = v.sort.width
    if kind == "pair":
        # Two equally tight variables of one name in one conjunct.
        bound = draw(st.integers(1, 16))
        return B.and_(*(B.bvult(B.bv_var(v.name, width), B.bv(bound, width))
                        for width in (8, 16)))
    if kind == "upper":
        return B.bvult(v, B.bv(draw(st.integers(1, 24)), w))
    if kind == "lower":
        return B.bvule(B.bv(draw(st.integers(0, 8)), w), v)
    if kind == "relation":
        u = draw(st.sampled_from([x for x in SPLIT_VARS if x.sort.width == w]))
        return B.bvult(B.bvadd(v, B.bv(draw(st.integers(0, 3)), w)), u)
    return draw(bool_terms(depth=1))


class TestSplitOrder:
    @given(st.lists(split_conjuncts(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_memoised_split_matches_sorting_reference(self, goal):
        facts = saturated(goal)
        if facts is None:
            return
        expected = sorting_enumerable_var(goal, facts)
        assert S._enumerable_var(goal, facts) == expected
        assert S._enumerable_var(goal, facts) == expected  # warm memo
