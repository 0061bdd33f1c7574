"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Word-level theory layer** (DESIGN.md: the substitute for Z3's
   preprocessing): representative verification side conditions with the
   layer on vs. raw bit-blasting.
2. **Solver result cache** (the paper's "populated lia cache"): repeated
   verification of the same case study warm vs. cold.
3. **Trace simplification** (Isla's footprint passes): trace sizes with and
   without dead-code elimination.
4. **memcpy scaling**: verification cost as the array length grows (the
   loop-invariant proof re-checks per-element side conditions).
"""

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.casestudies import memcpy_arm
from repro.isla import Assumptions, trace_for_opcode
from repro.smt import builder as B, clear_check_cache
from repro.smt.solver import UNSAT, Solver
from repro.smt.theory import refutes


def _ult_chain_goal(n: int):
    """x0 < x1 < ... < xn ⊢ x0 < xn — trivial for the theory layer,
    painful for bit-blasting."""
    xs = [B.bv_var(f"abl_x{i}", 64) for i in range(n + 1)]
    facts = [B.bvult(a, b) for a, b in zip(xs, xs[1:])]
    return facts, B.bvult(xs[0], xs[-1])


class TestTheoryLayerAblation:
    def test_theory_layer_decides_ordering_chain(self):
        facts, goal = _ult_chain_goal(8)
        assert refutes(facts + [B.not_(goal)])

    def test_solver_uses_theory_path(self):
        facts, goal = _ult_chain_goal(8)
        s = Solver(use_global_cache=False)
        s.add(*facts)
        assert s.is_valid(goal)

    def test_benchmark_with_theory(self, benchmark):
        facts, goal = _ult_chain_goal(6)

        def run():
            s = Solver(use_global_cache=False)
            s.add(*facts)
            assert s.is_valid(goal)

        benchmark(run)

    def test_benchmark_bitblast_only(self, benchmark):
        """The same query forced through the SAT core (small width so the
        ablation terminates quickly)."""
        xs = [B.bv_var(f"abl_bb{i}", 8) for i in range(4)]
        facts = [B.bvult(a, b) for a, b in zip(xs, xs[1:])]
        goal = B.bvult(xs[0], xs[-1])

        def run():
            # Drive the SAT core directly — no theory layer, no enumeration.
            from repro.smt.bitblast import BitBlaster
            from repro.smt.cnf import CnfBuilder
            from repro.smt.sat import SatSolver

            blaster = BitBlaster(CnfBuilder(sat := SatSolver()))
            for t in facts + [B.not_(goal)]:
                blaster.assert_term(t)
            assert sat.solve() is False  # UNSAT

        benchmark(run)


class TestCacheAblation:
    def test_benchmark_cold_cache(self, benchmark):
        def run():
            clear_check_cache()
            case = memcpy_arm.build(n=2)
            memcpy_arm.verify(case)

        benchmark.pedantic(run, rounds=2, iterations=1)

    def test_benchmark_warm_cache(self, benchmark):
        case = memcpy_arm.build(n=2)
        memcpy_arm.verify(case)  # warm up

        def run():
            memcpy_arm.verify(memcpy_arm.build(n=2))

        benchmark.pedantic(run, rounds=2, iterations=1)


class TestSimplificationAblation:
    def test_dead_read_elimination_shrinks_traces(self):
        """Fig. 6's beq reads one flag after simplification, four before."""
        from repro.isla.executor import SymbolicMachine, _build_tree, _Run

        model = ArmModel()
        opcode = A.b_cond("eq", -16)
        # Raw (unsimplified) trace: re-run the executor manually.
        raw_runs = []
        worklist = [()]
        explored = set()
        while worklist:
            forced = worklist.pop()
            if forced in explored:
                continue
            explored.add(forced)
            m = SymbolicMachine(model, Assumptions(), forced)
            model.execute(m, B.bv(opcode, 32))
            raw_runs.append(_Run(m.segments, m.decisions))
            for i in range(len(forced), len(m.decisions)):
                sib = tuple(m.decisions[:i]) + (not m.decisions[i],)
                if sib not in explored:
                    worklist.append(sib)
        raw = _build_tree(raw_runs, 0)
        simplified = trace_for_opcode(model, opcode, Assumptions()).trace
        assert simplified.num_events() < raw.num_events()

    def test_simplification_preserves_semantics(self):
        """Raw and simplified traces agree on final machine states."""
        from repro.validation import StateFamily, simulate_instruction

        model = ArmModel()
        opcode = A.cmp_reg(1, 2)
        assumptions = Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)
        trace = trace_for_opcode(model, opcode, assumptions).trace
        family = StateFamily(
            fixed={"PSTATE.EL": 2, "PSTATE.SP": 1}, vary=["R1", "R2"]
        )
        simulate_instruction(model, opcode, trace, family, samples=16)


class TestMemcpyScaling:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_benchmark_verify(self, benchmark, n):
        case = memcpy_arm.build(n=n)
        benchmark.pedantic(
            memcpy_arm.verify, args=(case,), rounds=1, iterations=1
        )

    def test_scaling_is_tame(self):
        """Verification steps grow roughly linearly in n (per-element side
        conditions), not exponentially."""
        steps = {}
        for n in (2, 4, 8):
            case = memcpy_arm.build(n=n)
            steps[n] = len(memcpy_arm.verify(case).steps)
        assert steps[8] - steps[4] <= 4 * (steps[4] - steps[2] + 8)
