"""Solver soundness across push/pop sequences, checked against exhaustive
evaluation.

Every query a :class:`Solver` answers over a randomised add/push/pop/check
script must be the verdict that ``smt/interp.evaluate`` gives by trying
every assignment of the script's variables (at most 3, at width 4), and
each SAT model must satisfy the goal.  That holds after conflict-limit
``unknown`` answers and under injected faults too: an injected fault may
turn a verdict into ``unknown``, never into the wrong answer.

At width 4 every variable spans 16 values, so small-domain enumeration
decides all of these goals by constant folding.  ``sat_core_only`` turns
enumeration and the constant-fill witnesses off for the block, so the
same scripts also reach the CDCL core.
"""

import itertools
import random
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest

from repro.resilience.faults import FaultInjector, inject
from repro.smt import builder as B
from repro.smt import solver as _solver
from repro.smt.interp import evaluate
from repro.smt.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    check_model,
    clear_check_cache,
)

from .._reference import whole_goals

WIDTH = 4


@contextmanager
def sat_core_only():
    """Leave every goal the theory layer cannot refute to the CDCL core."""
    with mock.patch.object(_solver, "_ENUM_LIMIT", 0), \
            mock.patch.object(_solver, "_WITNESS_FILLS", ()):
        yield


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_check_cache()
    yield
    clear_check_cache()


def _random_term_pool(rng, count=24):
    """Random conjuncts over three width-4 variables, each with its truth
    table: bit ``i`` is set when the ``i``-th assignment satisfies it."""
    tag = rng.randint(0, 10**9)
    xs = [B.bv_var(f"dx{tag}_{i}", WIDTH) for i in range(3)]
    envs = [
        dict(zip(xs, values))
        for values in itertools.product(range(1 << WIDTH), repeat=len(xs))
    ]
    pool = {}
    while len(pool) < count:
        a, b = rng.choice(xs), rng.choice(xs)
        k = B.bv(rng.randrange(1 << WIDTH), WIDTH)
        t = rng.choice(
            [
                B.bvult(a, k),
                B.bvult(B.bvxor(a, k), b),
                B.eq(B.bvadd(a, b), k),
                B.eq(B.bvand(a, k), B.bv(0, WIDTH)),
                B.not_(B.bvult(a, b)),
                B.eq(B.bvmul(a, b), k),
            ]
        )
        pool[t] = sum(1 << i for i, env in enumerate(envs) if evaluate(t, env))
    return pool


def _oracle(pool, goal) -> str:
    """SAT iff some assignment satisfies every conjunct of ``goal``."""
    mask = -1
    for t in goal:
        mask &= pool[t]
    return SAT if mask else UNSAT


@pytest.mark.parametrize("seed", range(8))
def test_differential_push_pop_sequences(seed):
    """One solver over a randomised add/push/pop/check script agrees with
    exhaustive evaluation on every query, with and without enumeration."""
    pool = _random_term_pool(random.Random(seed))
    terms = list(pool)
    for engine in (nullcontext, sat_core_only):
        rng = random.Random(seed)
        s = Solver(use_global_cache=False)
        depth = 0
        with engine():
            for _ in range(40):
                op = rng.choice(["add", "push", "pop", "check", "check_extra"])
                if op == "add":
                    s.add(rng.choice(terms))
                elif op == "push":
                    s.push()
                    depth += 1
                elif op == "pop" and depth:
                    s.pop()
                    depth -= 1
                elif op in ("check", "check_extra"):
                    extra = (rng.choice(terms),) if op == "check_extra" else ()
                    goal = list(s.assertions) + list(extra)
                    got = s.check(*extra)
                    assert got == _oracle(pool, goal), f"verdict drift on {op}"
                    if got == SAT:
                        assert check_model(goal, s.model())
        if engine is sat_core_only:
            assert s.stats["sat_solves"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_differential_after_conflict_limit_unknown(seed):
    """A conflict-starved query may come back ``unknown``, never wrong.
    The ``unknown`` is not cached: a solver with a real budget asked the
    same goal next returns the oracle's verdict, and so does the starved
    solver on every goal it decides."""
    rng = random.Random(1000 + seed)
    pool = _random_term_pool(rng)
    terms = list(pool)
    starved = Solver(max_conflicts=0)
    healthy = Solver()
    unknowns = 0
    with sat_core_only():
        for _ in range(24):
            goal = rng.sample(terms, rng.randint(2, 5))
            want = _oracle(pool, goal)
            for s in (starved, healthy):
                s.push()
                s.add(*goal)
                got = s.check()
                s.pop()
                if s is starved and got == UNKNOWN:
                    assert s.last_unknown_reason == "conflict-limit"
                    unknowns += 1
                else:
                    assert got == want
    assert unknowns > 0  # the budget really starved some query


@pytest.mark.parametrize("seed", range(4))
def test_differential_under_injected_faults(seed):
    """Transient faults at the bit-blaster site are retried.  A verdict
    given under injection is the oracle's or ``unknown``, and the same
    solver agrees with the oracle once the injector is gone."""
    rng = random.Random(2000 + seed)
    pool = _random_term_pool(rng)
    terms = list(pool)
    s = Solver(use_global_cache=False)
    s.add(*terms[:2])
    queries = terms[2:10]
    injector = FaultInjector(seed, rate=0.3, sites=("bitblast",))
    with sat_core_only():
        with inject(injector):
            seen = [s.check(q) for q in queries]
        for q, verdict in zip(queries, seen):
            want = _oracle(pool, list(s.assertions) + [q])
            assert s.check(q) == want
            assert verdict in (want, UNKNOWN)
    assert injector.log  # faults really fired


def test_pop_does_not_discard_learned_state():
    """Verdicts survive pop(): re-checking a goal seen before a push/pop
    cycle is answered from the verdict cache, with no new solve."""
    with sat_core_only():
        _check_pop_keeps_verdicts()


def _check_pop_keeps_verdicts():
    s = Solver()
    x = B.bv_var("pp_x", 32)
    base = B.bvult(B.bvxor(x, B.bv(0xDEAD, 32)), B.bv(1 << 30, 32))
    s.add(base)
    assert s.check() == SAT
    s.push()
    s.add(B.bvult(x, B.bv(100, 32)))
    assert s.check() == SAT
    s.pop()
    assert s.assertions == (base,)
    hits, solves = s.stats["cache_hits"], s.stats["sat_solves"]
    assert solves > 0
    assert s.check() == SAT
    assert s.stats["cache_hits"] == hits + 1
    assert s.stats["sat_solves"] == solves


def test_whole_goals_reference_is_unsliced():
    """The parity tests' reference sees every goal as one component."""
    s = Solver(use_global_cache=False)
    a, b = B.bv_var("rf_a", 16), B.bv_var("rf_b", 16)
    s.add(B.bvult(a, B.bv(10, 16)), B.eq(B.bvxor(b, B.bv(7, 16)), B.bv(0, 16)))
    with whole_goals():
        assert s.check() == SAT
        assert check_model(list(s.assertions), s.model())
    assert s.stats["sliced_checks"] == 0
    assert s.check() == SAT  # default engine: sliced
    assert s.stats["sliced_checks"] == 1


def test_model_goal_initialised():
    """Satellite: model() before any check must raise cleanly, not
    AttributeError via a missing _model_goal."""
    s = Solver(use_global_cache=False)
    with pytest.raises(RuntimeError):
        s.model()


def test_model_cleared_after_unsat_false_shortcircuit():
    """A FALSE-containing goal must invalidate any earlier SAT model."""
    s = Solver(use_global_cache=False)
    x = B.bv_var("mg_x", 8)
    assert s.check(B.bvult(x, B.bv(5, 8))) == SAT
    assert s.check(B.false()) == UNSAT
    with pytest.raises(RuntimeError):
        s.model()


def test_quick_valid_counts_stats():
    """Satellite: quick_valid hits/misses land in SolverStats."""
    s = Solver(use_global_cache=False)
    x = B.bv_var("qv_x", 16)
    s.add(B.bvult(x, B.bv(10, 16)))
    assert s.quick_valid(B.bvult(x, B.bv(100, 16))) is True
    assert s.stats["quick_valid_hits"] == 1
    s.quick_valid(B.eq(x, B.bv(3, 16)))  # not entailed: miss
    assert s.stats["quick_valid_misses"] == 1
    assert s.quick_valid(B.true()) is True
    assert s.stats["quick_valid_hits"] == 2
