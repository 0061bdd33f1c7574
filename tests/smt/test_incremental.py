"""Incremental-backend soundness: the persistent bit-blast context.

The load-bearing property is *differential*: a long-lived solver driven
through arbitrary add/push/pop/check sequences must return, for every
query, the verdict a fresh throwaway solver computes for the same asserted
set — including after conflict-limit UNKNOWNs and injected faults, which
must never poison the persistent context.
"""

import random

import pytest

from repro.resilience.faults import FaultInjector, inject
from repro.smt import builder as B
from repro.smt.sat import SatSolver
from repro.smt.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    check_model,
)

from .._reference import fresh_solver, whole_goals


# -- SatSolver assumption interface ------------------------------------------


class TestSatAssumptions:
    def test_assumption_failure_yields_final_conflict(self):
        s = SatSolver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        s.add_clause([-a, -c])
        assert s.solve(assumptions=[a]) is False
        # The final conflict is a subset of negated assumptions.
        assert set(s.conflict) <= {-a}
        # The solver state is still usable and consistent: `a` is now a
        # learned consequence-free refutation, the clause DB itself is SAT.
        assert s.solve() is True

    def test_contradictory_assumptions(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a, -a])  # tautology; DB trivially SAT
        assert s.solve(assumptions=[a, -a]) is False
        assert -a in s.conflict or a in s.conflict
        assert s.solve() is True

    def test_learned_clauses_persist_across_calls(self):
        # Pigeonhole: 4 pigeons, 3 holes.  The second identical solve must
        # reuse the learned clauses and conflict far less.
        s = SatSolver()
        holes = 3
        pigeons = 4
        v = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            s.add_clause([v[p][h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-v[p1][h], -v[p2][h]])
        assert s.solve() is False
        first = s.conflicts
        assert s.solve() is False
        assert s.conflicts - first < first

    def test_clause_addition_between_solves(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve(assumptions=[-a]) is True
        assert s.model()[b] is True
        s.add_clause([-b])
        assert s.solve(assumptions=[-a]) is False
        assert s.solve(assumptions=[a]) is True

    def test_units_survive_restarts(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a])
        s.add_clause([-a, b])
        assert s.solve() is True
        assert s.model()[a] is True and s.model()[b] is True
        assert s.solve(assumptions=[-b]) is False


# -- randomised differential property ----------------------------------------


def _random_term_pool(rng, nvars=4, width=8, count=24):
    xs = [B.bv_var(f"dx{rng.randint(0, 10**9)}_{i}", width) for i in range(nvars)]
    pool = []
    for _ in range(count):
        a, b = rng.choice(xs), rng.choice(xs)
        k = B.bv(rng.randrange(1 << width), width)
        t = rng.choice(
            [
                B.bvult(a, k),
                B.bvult(B.bvxor(a, k), b),
                B.eq(B.bvadd(a, b), k),
                B.eq(B.bvand(a, k), B.bv(0, width)),
                B.not_(B.bvult(a, b)),
            ]
        )
        pool.append(t)
    return pool


@pytest.mark.parametrize("seed", range(8))
def test_differential_push_pop_sequences(seed):
    """One persistent solver vs a fresh solver per query, over a randomised
    add/push/pop/check script."""
    rng = random.Random(seed)
    pool = _random_term_pool(rng)
    inc = Solver(use_global_cache=False)
    stack_depth = 0
    for _ in range(40):
        op = rng.choice(["add", "push", "pop", "check", "check_extra"])
        if op == "add":
            inc.add(rng.choice(pool))
        elif op == "push":
            inc.push()
            stack_depth += 1
        elif op == "pop" and stack_depth:
            inc.pop()
            stack_depth -= 1
        elif op in ("check", "check_extra"):
            extra = (rng.choice(pool),) if op == "check_extra" else ()
            got = inc.check(*extra)
            ref = Solver(use_global_cache=False)
            for t in inc.assertions:
                ref.add(t)
            with fresh_solver():
                want = ref.check(*extra)
            assert got == want, f"verdict drift on {op}: {got} != {want}"
            if got == SAT:
                goal = list(inc.assertions) + list(extra)
                assert check_model(goal, inc.model())


@pytest.mark.parametrize("seed", range(4))
def test_differential_after_conflict_limit_unknown(seed):
    """A conflict-starved UNKNOWN must not corrupt the persistent context:
    subsequent unstarved queries still agree with a fresh solver."""
    rng = random.Random(1000 + seed)
    pool = _random_term_pool(rng, width=16)
    starved = Solver(use_global_cache=False, max_conflicts=0)
    for t in pool[:3]:
        starved.add(t)
    with whole_goals():
        starved.check()  # may be UNKNOWN (conflict budget 0) — that's the point
    # Re-arm by querying through an unstarved solver sharing no state, and
    # an identical-engine solver with a real budget.
    healthy = Solver(use_global_cache=False)
    ref = Solver(use_global_cache=False)
    for t in pool[:3]:
        healthy.add(t)
        ref.add(t)
    with whole_goals():
        verdict = healthy.check()
    with fresh_solver():
        assert verdict == ref.check()
    # And the starved solver itself stays differentially sound on queries
    # its budget *can* decide (theory-layer refutations need no conflicts).
    x = B.bv_var(f"cl{seed}", 16)
    easy = [B.bvult(x, B.bv(10, 16)), B.not_(B.bvult(x, B.bv(100, 16)))]
    s2 = Solver(use_global_cache=False, max_conflicts=0)
    for t in easy:
        s2.add(t)
    with whole_goals():
        assert s2.check() == UNSAT


@pytest.mark.parametrize("seed", range(4))
def test_differential_under_injected_faults(seed):
    """Verdict parity with transient faults firing inside the incremental
    pipeline (bitblast site raises TransientFault; retry must recover and
    the context must stay sound afterwards)."""
    rng = random.Random(2000 + seed)
    pool = _random_term_pool(rng)
    inc = Solver(use_global_cache=False)
    for t in pool[:4]:
        inc.add(t)
    with inject(FaultInjector(seed, rate=0.3, sites=("bitblast",))):
        faulty_verdicts = [inc.check(q) for q in pool[4:10]]
    # After the injector is gone the same context must agree with fresh.
    for q, seen in zip(pool[4:10], faulty_verdicts):
        ref = Solver(use_global_cache=False)
        for t in inc.assertions:
            ref.add(t)
        with fresh_solver():
            want = ref.check(q)
        assert inc.check(q) == want
        # Under injection the only allowed deviation is UNKNOWN (gave up
        # after retries); a decisive verdict must have been the true one.
        assert seen in (want, UNKNOWN)


def test_pop_does_not_discard_learned_state():
    """Encodings and verdicts survive pop(): re-checking a previously seen
    goal after a push/pop cycle does not re-encode terms."""
    s = Solver(use_global_cache=False)
    x = B.bv_var("pp_x", 32)
    base = B.bvult(B.bvxor(x, B.bv(0xDEAD, 32)), B.bv(1 << 30, 32))
    with whole_goals():
        s.add(base)
        assert s.check() == SAT
        s.push()
        s.add(B.bvult(x, B.bv(100, 32)))
        assert s.check() in (SAT, UNSAT)
        s.pop()
        # Same goal as the first query: pure assumption replay.
        solves_before = s.stats["incremental_solves"]
        assert s.check() == SAT
    assert s.stats["incremental_solves"] == solves_before + 1
    assert s._ctx is not None  # the context survived the pop


def test_reference_solver_bypasses_the_incremental_context():
    """The parity tests' reference really is a fresh core per query and
    unsliced: no persistent context, no incremental or sliced solve."""
    s = Solver(use_global_cache=False)
    a, b = B.bv_var("rf_a", 16), B.bv_var("rf_b", 16)
    s.add(B.bvult(a, B.bv(10, 16)), B.eq(B.bvxor(b, B.bv(7, 16)), B.bv(0, 16)))
    with fresh_solver():
        assert s.check() == SAT
        assert check_model(list(s.assertions), s.model())
    assert s._ctx is None
    assert s.stats["incremental_solves"] == 0
    assert s.stats["sliced_checks"] == 0
    assert s.check() == SAT  # default engine: sliced, incremental
    assert s.stats["sliced_checks"] == 1
    assert s._ctx is not None


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
