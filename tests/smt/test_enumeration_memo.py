"""The small-domain enumeration's substitution memo.

``builder.substitute_value`` is a process-wide memo of ``substitute(t,
{v: c})``.  It must be an exact stand-in for the substitution it caches,
bounded, emptied by ``clear_check_cache``, and invisible in verdicts.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import builder as B
from repro.smt import evaluate
from repro.smt.solver import SAT, UNSAT, Solver, clear_check_cache

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


class TestSubstituteValue:
    @given(st.one_of(bv_terms(), bool_terms()), st.sampled_from(VARS), envs)
    @settings(max_examples=200, deadline=None)
    def test_matches_substitute_and_evaluation(self, term, var, env):
        value = B.bv(env[var], WIDTH)
        out = B.substitute_value(term, var, value)
        assert out is B.substitute(term, {var: value})
        assert evaluate(out, env) == evaluate(term, env)

    def test_memo_is_bounded(self):
        maxsize = B.substitute_value.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize

    def test_clear_check_cache_empties_memo(self):
        B.substitute_value(B.bvadd(m, B.bv(1, 64)), m, B.bv(3, 64))
        assert B.substitute_value.cache_info().currsize > 0
        clear_check_cache()
        assert B.substitute_value.cache_info().currsize == 0


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
