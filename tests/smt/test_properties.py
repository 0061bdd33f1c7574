"""Property-based tests: the SMT stack against the concrete interpreter.

Two core invariants:

1. *Builder soundness*: smart-constructor simplification preserves the value
   of a term under every environment.
2. *Solver/interpreter agreement*: a model returned by the solver really
   satisfies the asserted constraints when evaluated concretely, and
   constraints the interpreter can satisfy are never reported UNSAT.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import builder as B
from repro.smt import evaluate
from repro.smt.solver import SAT, UNSAT, Solver, check_model
from repro.smt.terms import Term

WIDTH = 8

xvar = B.bv_var("px", WIDTH)
yvar = B.bv_var("py", WIDTH)
zvar = B.bv_var("pz", WIDTH)
VARS = [xvar, yvar, zvar]


@st.composite
def bv_terms(draw, depth=3):
    """Random bitvector terms of width 8 over three variables."""
    if depth == 0:
        leaf = draw(st.integers(0, 3))
        if leaf == 0:
            return draw(st.sampled_from(VARS))
        return B.bv(draw(st.integers(0, 255)), WIDTH)
    op = draw(
        st.sampled_from(
            ["add", "sub", "and", "or", "xor", "not", "neg", "shl", "lshr", "mul",
             "ite", "leaf"]
        )
    )
    if op == "leaf":
        return draw(bv_terms(depth=0))
    if op in ("not", "neg"):
        a = draw(bv_terms(depth=depth - 1))
        return B.bvnot(a) if op == "not" else B.bvneg(a)
    if op == "ite":
        c = draw(bool_terms(depth=1))
        a = draw(bv_terms(depth=depth - 1))
        b = draw(bv_terms(depth=depth - 1))
        return B.ite(c, a, b)
    a = draw(bv_terms(depth=depth - 1))
    b = draw(bv_terms(depth=depth - 1))
    table = {
        "add": B.bvadd, "sub": B.bvsub, "and": B.bvand, "or": B.bvor,
        "xor": B.bvxor, "shl": B.bvshl, "lshr": B.bvlshr, "mul": B.bvmul,
    }
    return table[op](a, b)


@st.composite
def bool_terms(draw, depth=2):
    if depth == 0:
        a = draw(bv_terms(depth=1))
        b = draw(bv_terms(depth=1))
        cmp = draw(st.sampled_from([B.eq, B.bvult, B.bvule, B.bvslt, B.bvsle]))
        return cmp(a, b)
    op = draw(st.sampled_from(["and", "or", "not", "leaf"]))
    if op == "leaf":
        return draw(bool_terms(depth=0))
    if op == "not":
        return B.not_(draw(bool_terms(depth=depth - 1)))
    a = draw(bool_terms(depth=depth - 1))
    b = draw(bool_terms(depth=depth - 1))
    return B.and_(a, b) if op == "and" else B.or_(a, b)


envs = st.fixed_dictionaries(
    {xvar: st.integers(0, 255), yvar: st.integers(0, 255), zvar: st.integers(0, 255)}
)


class TestBuilderSoundness:
    @given(bv_terms(), envs)
    @settings(max_examples=300, deadline=None)
    def test_rebuild_preserves_value(self, term: Term, env):
        """Rebuilding a term through the simplifying constructors does not
        change its concrete value."""

        def rebuild(t: Term) -> Term:
            if not t.args:
                return t
            return B.rebuild(t.op, tuple(rebuild(a) for a in t.args), t.attrs)

        assert evaluate(rebuild(term), env) == evaluate(term, env)

    @given(bv_terms(), envs)
    @settings(max_examples=300, deadline=None)
    def test_substitution_matches_evaluation(self, term: Term, env):
        """Substituting concrete values must fold to the evaluated constant."""
        mapping = {v: B.bv(val, WIDTH) for v, val in env.items()}
        folded = B.substitute(term, mapping)
        assert folded.is_value()
        assert folded.value == evaluate(term, env)

    @given(bool_terms(), envs)
    @settings(max_examples=200, deadline=None)
    def test_bool_substitution_matches_evaluation(self, term, env):
        mapping = {v: B.bv(val, WIDTH) for v, val in env.items()}
        folded = B.substitute(term, mapping)
        assert folded.is_value()
        assert folded.value == evaluate(term, env)


class TestSolverAgreement:
    @given(bool_terms())
    @settings(max_examples=60, deadline=None)
    def test_sat_models_evaluate_true(self, constraint):
        s = Solver(use_global_cache=False)
        s.add(constraint)
        if s.check() == SAT:
            assert check_model([constraint], s.model())

    @given(bool_terms(), envs)
    @settings(max_examples=60, deadline=None)
    def test_witnessed_constraints_never_unsat(self, constraint, env):
        """If a concrete environment satisfies the constraint, the solver
        must not claim UNSAT (completeness spot-check)."""
        if not evaluate(constraint, env):
            return
        s = Solver(use_global_cache=False)
        s.add(constraint)
        assert s.check() == SAT

    @given(bv_terms(), bv_terms())
    @settings(max_examples=40, deadline=None)
    def test_eq_decision_agrees_with_exhaustion(self, a, b):
        """For single-variable terms, solver validity of a = b agrees with
        brute-force evaluation over all 256 values."""
        fv = (a.free_vars() | b.free_vars())
        if fv != {xvar}:
            return
        goal = B.eq(a, b)
        brute = all(
            evaluate(goal, {xvar: v}) for v in range(256)
        )
        s = Solver(use_global_cache=False)
        assert s.is_valid(goal) == brute
