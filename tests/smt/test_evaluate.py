"""``evaluate``'s fast paths (a bare variable or literal, one operator over
them) agree with the DAG walk, including the error an unbound variable
raises."""

import pytest

from repro.smt import builder as B
from repro.smt.interp import EvalError, _walk, evaluate

X = B.bv_var("x", 64)
Y = B.bv_var("y", 64)
P = B.bool_var("p")
ENV = {X: 0xDEAD_BEEF, Y: 3, P: True}


@pytest.mark.parametrize(
    "term",
    [
        X, P, B.bv(7, 64), B.bv(0, 1), B.true(), B.false(),
        B.bvadd(X, B.bv(1, 64)), B.bvmul(X, Y), B.bvult(Y, X),
        B.ite(P, X, B.bv(3, 64)), B.extract(7, 0, X), B.sign_extend(56, B.extract(7, 0, X)),
        B.bvadd(B.bvmul(X, Y), B.bvnot(Y)),
    ],
    ids=repr,
)
def test_fast_paths_match_the_walk(term):
    assert evaluate(term, ENV) == _walk(term, ENV)
    assert type(evaluate(term, ENV)) is type(_walk(term, ENV))


def test_literals_need_no_environment():
    assert evaluate(B.bv(5, 8)) == 5
    assert evaluate(B.true()) is True


U = B.bv_var("u", 64)
W = B.bv_var("w", 64)


@pytest.mark.parametrize(
    "term",
    [
        U,
        B.bvadd(U, X),
        B.bvadd(U, W),
        B.bvadd(W, B.bvmul(U, X)),
        B.bvadd(B.bvmul(U, X), W),
        B.ite(P, U, W),
    ],
    ids=repr,
)
def test_unbound_variable_raises_the_same_error(term):
    with pytest.raises(EvalError) as fast:
        evaluate(term, ENV)
    with pytest.raises(EvalError) as walked:
        _walk(term, ENV)
    assert str(fast.value) == str(walked.value)
    assert str(fast.value).startswith("unbound variable ")
