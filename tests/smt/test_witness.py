"""Constant-fill witnesses: SAT answers checked by evaluation.

A goal that the theory layer and small-domain enumeration leave undecided
is tried under three constant fills of its variables (0, 1, all-ones;
booleans False, True, True) before it is bit-blasted.  A fill is accepted
only when every conjunct evaluates true under it, so a witness answer is
always SAT with a complete model that satisfies the goal, and it must
never change a verdict.  The goals here are narrow enough to check
against evaluation under every assignment (``tests/_reference.py``).
"""

from contextlib import nullcontext
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import builder as B
from repro.smt import solver as S
from repro.smt.interp import evaluate
from repro.smt.solver import SAT, UNSAT, Solver, clear_check_cache
from tests._reference import exhaustive_models

WIDTH = 4
XS = [B.bv_var("wx", WIDTH), B.bv_var("wy", WIDTH)]
P = B.bool_var("wp")
FILLS = (0, 1, (1 << WIDTH) - 1)


@st.composite
def bv_operands(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from(XS))
        return B.bv(draw(st.integers(0, (1 << WIDTH) - 1)), WIDTH)
    a = draw(bv_operands(depth=depth - 1))
    b = draw(bv_operands(depth=depth - 1))
    build = draw(st.sampled_from(
        [B.bvadd, B.bvsub, B.bvand, B.bvor, B.bvxor, B.bvmul, B.bvlshr]
    ))
    return build(a, b)


@st.composite
def conjuncts(draw):
    kind = draw(st.sampled_from(["cmp", "cmp", "cmp", "bool", "ite"]))
    a, b = draw(bv_operands()), draw(bv_operands())
    cmp = draw(st.sampled_from([B.eq, B.bvult, B.bvule, B.bvslt, B.bvsle]))(a, b)
    if kind == "bool":
        return draw(st.sampled_from([B.or_, B.and_, B.xor]))(P, cmp)
    if kind == "ite":
        return B.eq(B.ite(P, a, b), draw(bv_operands(depth=1)))
    return draw(st.sampled_from([cmp, B.not_(cmp)]))


goals = st.lists(conjuncts(), min_size=1, max_size=4)


def _no_enumeration():
    """Leave goals the theory layer cannot refute to the witnesses and the
    CDCL core (at width 4 enumeration would fold every goal)."""
    return mock.patch.object(S, "_ENUM_LIMIT", 0)


def _no_witnesses():
    return mock.patch.object(S, "_WITNESS_FILLS", ())


def _check(goal):
    s = Solver(use_global_cache=False)
    verdict = s.check(*goal)
    return verdict, s


def _constant_models(goal):
    """The exhaustive reference's models that give every variable one fill."""
    for env in exhaustive_models(goal):
        for fill in FILLS:
            if all(
                value == (fill != 0 if isinstance(value, bool) else fill)
                for value in env.values()
            ):
                yield env
                break


class TestWitnessSoundness:
    @given(goals)
    @settings(max_examples=300, deadline=None)
    def test_witness_models_satisfy_every_conjunct(self, goal):
        model = S._constant_witness(goal)
        constant = list(_constant_models(goal))
        if model is None:
            assert constant == []
            return
        variables = set().union(*(t.free_vars() for t in goal))
        assert set(model) == variables  # complete, nothing defaulted
        assert all(evaluate(t, model) for t in goal)
        assert model in constant

    @given(goals)
    @settings(max_examples=300, deadline=None)
    def test_verdicts_agree_with_exhaustive_evaluation(self, goal):
        want = SAT if next(exhaustive_models(goal), None) is not None else UNSAT
        with _no_enumeration():
            verdict, s = _check(goal)
        assert verdict == want
        if verdict == SAT:
            model = s.model()
            assert all(evaluate(t, model) for t in goal)

    @given(goals)
    @settings(max_examples=200, deadline=None)
    def test_verdicts_with_witnesses_on_and_off_are_identical(self, goal):
        for engine in (_no_enumeration, nullcontext):
            with engine():
                on, _ = _check(goal)
                with _no_witnesses():
                    off, s_off = _check(goal)
            assert on == off
            assert s_off.stats["witness_sats"] == 0


class TestWitnessPlacement:
    def test_a_constant_fill_goal_skips_the_core(self):
        x, y = B.bv_var("wpx", 32), B.bv_var("wpy", 32)
        goal = [B.bvult(B.bvxor(x, B.bv(0xDEAD, 32)), B.bv(1 << 30, 32)),
                B.eq(B.bvand(x, y), B.bv(0, 32))]
        clear_check_cache()
        verdict, s = _check(goal)
        assert verdict == SAT
        assert s.stats["witness_sats"] == 1 and s.stats["sat_solves"] == 0
        assert s.model() == {x: 0, y: 0}
        with _no_witnesses():
            verdict, s = _check(goal)
        assert verdict == SAT and s.stats["sat_solves"] == 1

    def test_a_theory_refutation_never_reaches_the_witness(self, monkeypatch):
        """A goal the theory layer refutes is decided before any fill is
        tried."""
        calls = []
        real = S._constant_witness
        monkeypatch.setattr(
            S, "_constant_witness", lambda goal: calls.append(goal) or real(goal)
        )
        x = B.bv_var("wdx", 64)
        refuted = [B.bvult(x, B.bv(3, 64)), B.bvult(B.bv(5, 64), x)]
        assert _check(refuted)[0] == UNSAT
        assert calls == []

    def test_an_unsatisfiable_goal_still_reaches_the_core(self):
        x = B.bv_var("wux", 8)
        # A square is 0 or 1 mod 4: no fill satisfies x * x = 2, and only
        # the core refutes it.
        goal = [B.eq(B.bvmul(x, x), B.bv(2, 8))]
        verdict, s = _check(goal)
        assert verdict == UNSAT
        assert s.stats["witness_sats"] == 0 and s.stats["sat_solves"] == 1
