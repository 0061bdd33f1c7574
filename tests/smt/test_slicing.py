"""Connected-component goal slicing: partition correctness and the
soundness argument (component verdicts compose into whole-goal verdicts)."""

import random

from repro.smt import builder as B
from repro.smt.slicing import partition_goal, query_component_indices
from repro.smt.solver import SAT, UNSAT, Solver, check_model

from .._reference import whole_goals


def _vars(width=8, n=6, tag="sl"):
    return [B.bv_var(f"{tag}{i}", width) for i in range(n)]


class TestPartition:
    def test_disjoint_terms_split(self):
        a, b, c = B.bv_var("pa", 8), B.bv_var("pb", 8), B.bv_var("pc", 8)
        goal = [B.bvult(a, B.bv(1, 8)), B.bvult(b, B.bv(2, 8)), B.bvult(c, B.bv(3, 8))]
        comps = partition_goal(goal)
        assert [len(c) for c in comps] == [1, 1, 1]

    def test_shared_var_merges(self):
        a, b, c = B.bv_var("qa", 8), B.bv_var("qb", 8), B.bv_var("qc", 8)
        goal = [
            B.bvult(a, b),  # {a,b}
            B.bvult(c, B.bv(9, 8)),  # {c}
            B.bvult(b, B.bv(5, 8)),  # {b} -> joins first
        ]
        comps = partition_goal(goal)
        assert len(comps) == 2
        assert comps[0] == [goal[0], goal[2]]
        assert comps[1] == [goal[1]]

    def test_transitive_merge_through_chain(self):
        xs = _vars(n=5, tag="tc")
        chain = [B.bvult(a, b) for a, b in zip(xs, xs[1:])]
        comps = partition_goal(chain)
        assert len(comps) == 1 and comps[0] == chain

    def test_ground_terms_isolated(self):
        a = B.bv_var("ga", 8)
        ground = B.eq(B.bv(1, 8), B.bv(1, 8))
        # builder folds that to TRUE; build a non-folding ground bool
        goal = [B.bvult(a, B.bv(4, 8)), ground]
        comps = partition_goal(goal)
        assert sum(len(c) for c in comps) == len(goal)

    def test_partition_is_a_partition(self):
        rng = random.Random(7)
        xs = _vars(n=8, tag="pp")
        goal = []
        for _ in range(20):
            a, b = rng.choice(xs), rng.choice(xs)
            goal.append(B.bvult(B.bvxor(a, B.bv(rng.randrange(256), 8)), b))
        comps = partition_goal(goal)
        flat = [t for c in comps for t in c]
        assert sorted(map(id, flat)) == sorted(map(id, goal))
        # Components are variable-disjoint.
        seen: set = set()
        for comp in comps:
            cv = set()
            for t in comp:
                cv |= t.free_vars()
            assert not (cv & seen)
            seen |= cv

    def test_deterministic_order(self):
        xs = _vars(n=6, tag="do")
        goal = [B.bvult(xs[i], B.bv(i + 1, 8)) for i in range(6)]
        assert partition_goal(goal) == partition_goal(list(goal))


class TestQueryComponents:
    def test_query_selects_touching_component(self):
        a, b = B.bv_var("qs_a", 8), B.bv_var("qs_b", 8)
        goal = [B.bvult(a, B.bv(4, 8)), B.bvult(b, B.bv(9, 8))]
        comps = partition_goal(goal)
        q = B.eq(a, B.bv(1, 8))
        assert query_component_indices(comps, (q,)) == {0}

    def test_query_term_membership(self):
        a = B.bv_var("qm_a", 8)
        t = B.bvult(a, B.bv(4, 8))
        comps = partition_goal([t])
        assert query_component_indices(comps, (t,)) == {0}

    def test_query_disjoint_from_everything(self):
        a, z = B.bv_var("qd_a", 8), B.bv_var("qd_z", 8)
        comps = partition_goal([B.bvult(a, B.bv(4, 8))])
        assert query_component_indices(comps, (B.bvult(z, B.bv(1, 8)),)) == set()


class TestSlicedSolving:
    def test_unsat_component_refutes_whole(self):
        a, b = B.bv_var("sr_a", 16), B.bv_var("sr_b", 16)
        s = Solver(use_global_cache=False)
        s.add(B.bvult(a, B.bv(10, 16)))
        s.add(B.bvult(b, B.bv(10, 16)))
        # Query contradicts only the `a` component.
        assert s.check(B.not_(B.bvult(a, B.bv(100, 16)))) == UNSAT

    def test_sat_models_merge_across_components(self):
        a, b = B.bv_var("mm_a", 16), B.bv_var("mm_b", 16)
        s = Solver(use_global_cache=False)
        g1 = B.eq(B.bvand(a, B.bv(0xFF, 16)), B.bv(0x12, 16))
        g2 = B.eq(B.bvxor(b, B.bv(0x34, 16)), B.bv(0, 16))
        s.add(g1)
        s.add(g2)
        assert s.check() == SAT
        model = s.model()
        assert check_model([g1, g2], model)

    def test_randomised_sliced_equals_whole(self):
        rng = random.Random(11)
        for trial in range(12):
            xs = _vars(width=12, n=6, tag=f"rw{trial}_")
            goal = []
            for _ in range(rng.randrange(2, 7)):
                a, b = rng.choice(xs), rng.choice(xs)
                k = B.bv(rng.randrange(1 << 12), 12)
                goal.append(
                    rng.choice(
                        [
                            B.bvult(a, k),
                            B.eq(B.bvadd(a, b), k),
                            B.not_(B.bvult(B.bvxor(a, k), b)),
                        ]
                    )
                )
            sliced = Solver(use_global_cache=False)
            whole = Solver(use_global_cache=False)
            for t in goal:
                sliced.add(t)
                whole.add(t)
            verdict = sliced.check()
            with whole_goals():
                assert verdict == whole.check()

    def test_component_cache_hits_across_extending_queries(self):
        """The point of per-component keys: queries that extend an unrelated
        part of the goal reuse untouched components' verdicts."""
        from repro.smt.solver import clear_check_cache

        clear_check_cache()
        a, b = B.bv_var("cc_a", 16), B.bv_var("cc_b", 16)
        s = Solver()  # global cache on
        s.add(B.eq(B.bvand(a, B.bv(3, 16)), B.bv(1, 16)))
        assert s.check(B.bvult(b, B.bv(10, 16))) == SAT
        hits_before = s.stats["slice_cache_hits"]
        # New query on b only: the `a` component verdict must be a hit.
        assert s.check(B.bvult(b, B.bv(20, 16))) == SAT
        assert s.stats["slice_cache_hits"] > hits_before
