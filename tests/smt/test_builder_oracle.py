"""Builder rewrites against an oracle that shares none of them.

Every simplifying constructor of :mod:`repro.smt.builder` that the models
and the logic use must give a term whose value equals the value of the
*unsimplified* term: ``evaluate(B.op(args), env)`` against
``evaluate(T.mk_term(op, args, attrs, sort), env)``.  ``mk_term`` only
interns, so a wrong rewrite cannot hide on both sides of the comparison
(``TestBuilderSoundness`` rebuilds through the builder on both sides, and
passes with a folding defect in it).

The arguments are drawn exhaustively, not sampled: symbolic leaves, the
constants 0, 1, 2^(w-1) and all-ones, and one-operator raw terms whose
shape the rewrites look into (extract of a concat, a shifted operand, a
double negation...), at widths 1, 8 and 64.  Variables take the boundary
values 0, 1, 2^(w-1) - 1, 2^(w-1) and all-ones, plus one seeded random
value.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.smt import builder as B
from repro.smt import evaluate
from repro.smt import terms as T
from repro.smt.sorts import BOOL, bv_sort

WIDTHS = (1, 8, 64)
MAX_ENVS = 48


def _consts(w: int) -> list[int]:
    return sorted({0, 1, 1 << (w - 1), (1 << w) - 1})


def _var(name: str, w: int):
    return B.bv_var(f"oracle_{name}{w}", w)


def _raw(op: str, args: tuple, attrs: tuple = ()):
    """The unsimplified term: its sort computed here, not by the builder."""
    if op in _BOOL_RESULT:
        sort = BOOL
    elif op == T.CONCAT:
        sort = bv_sort(args[0].width + args[1].width)
    elif op == T.EXTRACT:
        sort = bv_sort(attrs[0] - attrs[1] + 1)
    elif op in (T.ZERO_EXTEND, T.SIGN_EXTEND):
        sort = bv_sort(args[0].width + attrs[0])
    else:
        sort = args[-1].sort
    return T.mk_term(op, args, attrs, sort)


_BOOL_RESULT = {
    T.NOT, T.AND, T.OR, T.XOR_BOOL, T.EQ,
    T.BVULT, T.BVULE, T.BVSLT, T.BVSLE,
}


def _leaves(w: int) -> list:
    return [_var("x", w), _var("y", w)] + [B.bv(c, w) for c in _consts(w)]


def _shapes(w: int) -> list:
    """Raw one-operator bitvector terms of width ``w`` over leaves."""
    x, y = _var("x", w), _var("y", w)
    one, top = B.bv(1, w), B.bv(1 << (w - 1), w)
    shapes = [
        _raw(T.BVADD, (x, y)),
        _raw(T.BVSUB, (x, one)),
        _raw(T.BVNEG, (x,)),
        _raw(T.BVNOT, (x,)),
        _raw(T.BVAND, (x, top)),
        _raw(T.BVOR, (x, one)),
        _raw(T.BVXOR, (x, y)),
        _raw(T.BVSHL, (x, one)),
        _raw(T.EXTRACT, (_var("x", 2 * w),), (w - 1, 0)),
        _raw(T.EXTRACT, (_var("x", 2 * w),), (2 * w - 1, w)),
    ]
    if w > 1:
        half = w // 2
        xh, yh = _var("x", half), _var("y", half)
        shapes += [
            _raw(T.BVSHL, (x, B.bv(half, w))),
            _raw(T.CONCAT, (xh, yh)),
            _raw(T.ZERO_EXTEND, (xh,), (w - half,)),
            _raw(T.SIGN_EXTEND, (xh,), (w - half,)),
        ]
    return shapes


def _pool(w: int) -> list:
    return _leaves(w) + _shapes(w)


def _bool_pool() -> list:
    p, q = B.bool_var("oracle_p"), B.bool_var("oracle_q")
    x, c = _var("x", 8), B.bv(0x80, 8)
    return [
        p, q, B.true(), B.false(),
        _raw(T.NOT, (p,)),
        _raw(T.AND, (p, q)),
        _raw(T.EQ, (x, c)),
        _raw(T.BVULE, (x, c)),
    ]


def _values(w: int, rng: random.Random) -> list[int]:
    half = 1 << (w - 1)
    return sorted({0, 1, half - 1, half, (1 << w) - 1, rng.getrandbits(w)})


def _envs(term) -> list[dict]:
    """Assignments to ``term``'s free variables: every combination of the
    boundary values, or a seeded sample of them when there are too many."""
    rng = random.Random(str(term))
    names = sorted(term.free_vars(), key=lambda v: v.name)
    choices = [
        [False, True] if v.sort == BOOL else _values(v.width, rng) for v in names
    ]
    combos = list(itertools.product(*choices))
    if len(combos) > MAX_ENVS:
        combos = rng.sample(combos, MAX_ENVS)
    return [dict(zip(names, combo)) for combo in combos]


def _assert_agrees(built, raw, what: str) -> None:
    assert built.sort == raw.sort, what
    for env in _envs(raw):
        got, want = evaluate(built, env), evaluate(raw, env)
        assert got == want, f"{what} under {env}: builder {got}, raw {want}"


def _pairs(w: int) -> list[tuple]:
    """Argument pairs with at least one leaf: constants and repeated
    arguments are what the binary rewrites fire on."""
    leaves, pool = _leaves(w), _pool(w)
    pairs = {(a, b) for a in leaves for b in pool}
    pairs |= {(a, b) for a in pool for b in leaves}
    return sorted(pairs, key=lambda ab: (ab[0].uid, ab[1].uid))


BINARY = {
    "bvadd": (B.bvadd, T.BVADD),
    "bvsub": (B.bvsub, T.BVSUB),
    "bvmul": (B.bvmul, T.BVMUL),
    "bvudiv": (B.bvudiv, T.BVUDIV),
    "bvurem": (B.bvurem, T.BVUREM),
    "bvand": (B.bvand, T.BVAND),
    "bvor": (B.bvor, T.BVOR),
    "bvxor": (B.bvxor, T.BVXOR),
    "bvshl": (B.bvshl, T.BVSHL),
    "bvlshr": (B.bvlshr, T.BVLSHR),
    "bvashr": (B.bvashr, T.BVASHR),
    "eq": (B.eq, T.EQ),
    "bvult": (B.bvult, T.BVULT),
    "bvule": (B.bvule, T.BVULE),
    "bvslt": (B.bvslt, T.BVSLT),
    "bvsle": (B.bvsle, T.BVSLE),
}

#: The flipped comparisons, whose raw form swaps the arguments.
FLIPPED = {
    "bvugt": (B.bvugt, T.BVULT),
    "bvuge": (B.bvuge, T.BVULE),
    "bvsgt": (B.bvsgt, T.BVSLT),
    "bvsge": (B.bvsge, T.BVSLE),
}


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_constructor_matches_raw_term(name, w):
    build, op = BINARY[name]
    for a, b in _pairs(w):
        _assert_agrees(build(a, b), _raw(op, (a, b)), f"{name}({a}, {b})")


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("name", sorted(FLIPPED))
def test_flipped_comparison_matches_raw_term(name, w):
    build, op = FLIPPED[name]
    for a, b in _pairs(w):
        _assert_agrees(build(a, b), _raw(op, (b, a)), f"{name}({a}, {b})")


@pytest.mark.parametrize("w", WIDTHS)
def test_unary_constructors_match_raw_terms(w):
    for a in _pool(w):
        _assert_agrees(B.bvnot(a), _raw(T.BVNOT, (a,)), f"bvnot({a})")
        _assert_agrees(B.bvneg(a), _raw(T.BVNEG, (a,)), f"bvneg({a})")


def _ranges(w: int) -> list[tuple[int, int]]:
    half = w // 2
    spans = {(w - 1, 0), (0, 0), (w - 1, w - 1), (w - 1, half), (half, 1)}
    if half:
        spans |= {(half - 1, 0), (half, half - 1)}
    return sorted((hi, lo) for hi, lo in spans if 0 <= lo <= hi < w)


@pytest.mark.parametrize("w", WIDTHS)
def test_extract_matches_raw_term(w):
    for a in _pool(w):
        for hi, lo in _ranges(w):
            raw = _raw(T.EXTRACT, (a,), (hi, lo))
            _assert_agrees(B.extract(hi, lo, a), raw, f"extract[{hi}:{lo}]({a})")


@pytest.mark.parametrize("w", WIDTHS)
def test_extensions_match_raw_terms(w):
    for a in _pool(w):
        for extra in (1, 7):
            for build, op in ((B.zero_extend, T.ZERO_EXTEND), (B.sign_extend, T.SIGN_EXTEND)):
                _assert_agrees(
                    build(extra, a), _raw(op, (a,), (extra,)), f"{op}{extra}({a})"
                )


@pytest.mark.parametrize("w", WIDTHS)
def test_concat_matches_raw_term(w):
    for hi in _pool(w):
        for lo in _pool(w):
            _assert_agrees(B.concat(hi, lo), _raw(T.CONCAT, (hi, lo)), f"concat({hi}, {lo})")
    # Adjacent extracts of one base re-fuse.
    x = _var("x", 2 * w)
    for mid in range(1, 2 * w):
        hi = _raw(T.EXTRACT, (x,), (2 * w - 1, mid))
        lo = _raw(T.EXTRACT, (x,), (mid - 1, 0))
        _assert_agrees(B.concat(hi, lo), _raw(T.CONCAT, (hi, lo)), f"concat@{mid}")


@pytest.mark.parametrize("w", WIDTHS)
def test_ite_matches_raw_term(w):
    leaves = _leaves(w)
    for cond in _bool_pool():
        for a in leaves:
            for b in leaves:
                _assert_agrees(B.ite(cond, a, b), _raw(T.ITE, (cond, a, b)), f"ite({cond})")


def test_boolean_connectives_match_raw_terms():
    pool = _bool_pool()
    for a in pool:
        _assert_agrees(B.not_(a), _raw(T.NOT, (a,)), f"not({a})")
        for b in pool:
            for build, op in (
                (B.and_, T.AND), (B.or_, T.OR), (B.xor, T.XOR_BOOL), (B.eq, T.EQ),
            ):
                _assert_agrees(build(a, b), _raw(op, (a, b)), f"{op}({a}, {b})")
            # ``implies`` is sugar; its meaning is spelled out raw.
            raw = _raw(T.OR, (_raw(T.NOT, (a,)), b))
            _assert_agrees(B.implies(a, b), raw, f"implies({a}, {b})")
