"""Tests for the Isla symbolic executor: trace shapes, pruning,
assumptions, symbolic immediates, and the Fig. 3/Fig. 6 reproductions."""

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.arch.riscv import RiscvModel, encode as RV
from repro.isla import Assumptions, IslaError, trace_for_opcode
from repro.itl import events as E
from repro.itl import trace_to_sexpr
from repro.smt import builder as B



@pytest.fixture(scope="module")
def arm():
    return ArmModel()


@pytest.fixture(scope="module")
def riscv():
    return RiscvModel()


def el2():
    return Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)


class TestFig3AddSp:
    """§2.1: the add sp, sp, #0x40 trace under EL=2, SP=1."""

    def test_opcode_matches_paper(self):
        assert A.add_imm(31, 31, 0x40) == 0x910103FF

    def test_trace_is_linear(self, arm):
        res = trace_for_opcode(arm, 0x910103FF, el2())
        assert res.paths == 1
        assert res.trace.cases is None

    def test_trace_structure(self, arm):
        res = trace_for_opcode(arm, 0x910103FF, el2())
        kinds = [type(j).__name__ for j in res.trace.iter_events()]
        # assume-regs for the pins, read SP_EL2, add, write back, PC bump.
        assert kinds.count("AssumeReg") == 2
        assert kinds.count("ReadReg") == 2  # SP_EL2 and _PC
        assert kinds.count("WriteReg") == 2

    def test_uses_banked_sp_el2(self, arm):
        res = trace_for_opcode(arm, 0x910103FF, el2())
        regs = [j.reg.base for j in res.trace.iter_events() if isinstance(j, E.ReadReg)]
        assert "SP_EL2" in regs
        assert "SP_EL0" not in regs

    def test_adds_0x40(self, arm):
        res = trace_for_opcode(arm, 0x910103FF, el2())
        defines = [j for j in res.trace.iter_events() if isinstance(j, E.DefineConst)]
        assert any(
            j.expr.op == "bvadd" and B.bv(0x40, 64) in j.expr.args for j in defines
        )

    def test_unconstrained_has_five_cases(self, arm):
        """Without the EL/SP pins the banked-SP selection yields the paper's
        five cases (SP=0, plus one per EL)."""
        res = trace_for_opcode(arm, 0x910103FF, Assumptions())
        assert res.paths == 5

    def test_el1_constraint_uses_sp_el1(self, arm):
        assm = Assumptions().pin("PSTATE.EL", 1, 2).pin("PSTATE.SP", 1, 1)
        res = trace_for_opcode(arm, 0x910103FF, assm)
        regs = {j.reg.base for j in res.trace.iter_events() if isinstance(j, E.ReadReg)}
        assert "SP_EL1" in regs

    def test_simplification_factor(self, arm):
        """The headline of §2.1: the trace is far smaller than the executed
        model (146 lines / 9 functions for the real add)."""
        res = trace_for_opcode(arm, 0x910103FF, el2())
        assert res.model_steps > res.trace.num_events()


class TestFig6Beq:
    """§2.4: intra-instruction branching for b.eq."""

    def test_two_cases(self, arm):
        res = trace_for_opcode(arm, A.b_cond("eq", -16), Assumptions())
        assert res.paths == 2
        assert res.trace.cases is not None and len(res.trace.cases) == 2

    def test_reads_only_z_flag(self, arm):
        # Isla elides the dead N/C/V reads (dead-read elimination).
        res = trace_for_opcode(arm, A.b_cond("eq", -16), Assumptions())
        spine_reads = [
            j.reg.field for j in res.trace.events if isinstance(j, E.ReadReg)
            and j.reg.base == "PSTATE"
        ]
        assert spine_reads == ["Z"]

    def test_branches_assert_opposite_conditions(self, arm):
        res = trace_for_opcode(arm, A.b_cond("eq", -16), Assumptions())
        a0 = next(j for j in res.trace.cases[0].events if isinstance(j, E.Assert))
        a1 = next(j for j in res.trace.cases[1].events if isinstance(j, E.Assert))
        assert B.not_(a0.expr) == a1.expr or B.not_(a1.expr) == a0.expr

    def test_backward_offset_encoding(self, arm):
        # -16 appears as the 64-bit two's complement constant of Fig. 6.
        res = trace_for_opcode(arm, A.b_cond("eq", -16), Assumptions())
        text = trace_to_sexpr(res.trace)
        assert "#xfffffffffffffff0" in text

    def test_pinned_flag_collapses_to_linear(self, arm):
        assm = Assumptions().pin("PSTATE.Z", 1, 1)
        res = trace_for_opcode(arm, A.b_cond("eq", -16), assm)
        assert res.paths == 1


class TestUnknownVerdicts:
    """Only an UNSAT feasibility verdict prunes a direction: one UNKNOWN
    answer must keep the branch, or an incomplete enumeration would be
    reported (and cached, and proved) as complete."""

    def test_unknown_second_query_keeps_both_directions(self, monkeypatch):
        from repro.cosim.archs import COSIM_ARCHS
        from repro.smt import solver as S

        arch = COSIM_ARCHS["arm"]
        S.clear_check_cache()
        real = S.Solver.check
        calls = []

        def second_query_unknown(self, *extra):
            calls.append(extra)
            if len(calls) == 2:
                self.stats.inc("checks")
                return S.UNKNOWN
            return real(self, *extra)

        monkeypatch.setattr(S.Solver, "check", second_query_unknown)
        res = trace_for_opcode(
            arch.model, arch.asm.assemble_line("cbz x1, #8"), arch.assumptions()
        )
        assert len(calls) >= 2
        assert res.exhausted is None
        assert res.paths == 2
        assert res.trace.cases is not None and len(res.trace.cases) == 2


class TestAssumptionMechanics:
    def test_pin_becomes_assume_reg_event(self, arm):
        res = trace_for_opcode(arm, A.mov_reg(0, 1), el2())
        # mov doesn't touch PSTATE, so no assume-regs should appear at all.
        assert not any(isinstance(j, E.AssumeReg) for j in res.trace.iter_events())

    def test_constraint_becomes_assume_event(self, arm):
        assm = el2().pin("HCR_EL2", 0x80000000, 64).constrain(
            "SPSR_EL2",
            lambda v: B.or_(B.eq(v, B.bv(0x3C4, 64)), B.eq(v, B.bv(0x3C9, 64))),
        )
        res = trace_for_opcode(arm, A.eret(), assm)
        assumes = [j for j in res.trace.iter_events() if isinstance(j, E.Assume)]
        assert assumes, "relaxed constraint must be recorded as Assume"
        assert res.paths == 2  # EL1 return vs EL2 return

    def test_eret_unconstrained_fails(self, arm):
        # §2.8: eret requires specialised constraints.
        with pytest.raises(IslaError):
            trace_for_opcode(arm, A.eret(), el2())

    def test_assumption_width_mismatch(self, arm):
        assm = Assumptions().pin("PSTATE.EL", 2, 64)  # wrong width
        with pytest.raises(IslaError):
            trace_for_opcode(arm, 0x910103FF, assm)


class TestSymbolicImmediates:
    def test_movz_symbolic_imm(self, arm):
        from repro.casestudies.pkvm import symbolic_movz

        g = B.bv_var("g", 16)
        res = trace_for_opcode(arm, symbolic_movz(9, g, 0), el2())
        assert res.paths == 1
        writes = [j for j in res.trace.iter_events()
                  if isinstance(j, E.WriteReg) and j.reg.base == "R9"]
        assert writes and g in writes[0].value.free_vars() or any(
            g in j.expr.free_vars() for j in res.trace.iter_events()
            if isinstance(j, E.DefineConst)
        )

    def test_undecodable_opcode(self, arm):
        with pytest.raises(IslaError):
            trace_for_opcode(arm, 0xFFFFFFFF, el2())


class TestRiscvTraces:
    def test_branch_two_cases(self, riscv):
        res = trace_for_opcode(riscv, RV.beqz("a2", 28), Assumptions())
        assert res.paths == 2

    def test_load_reads_memory(self, riscv):
        res = trace_for_opcode(riscv, RV.lb("a3", "a1"), Assumptions())
        assert any(isinstance(j, E.ReadMem) for j in res.trace.iter_events())

    def test_store_writes_memory(self, riscv):
        res = trace_for_opcode(riscv, RV.sb("a3", "a0"), Assumptions())
        writes = [j for j in res.trace.iter_events() if isinstance(j, E.WriteMem)]
        assert len(writes) == 1 and writes[0].nbytes == 1

    def test_x0_write_elided(self, riscv):
        res = trace_for_opcode(riscv, RV.nop(), Assumptions())
        assert not any(isinstance(j, E.WriteReg) and j.reg.base == "x0"
                       for j in res.trace.iter_events())


class TestTraceSimplification:
    def test_no_dead_defines(self, arm):
        res = trace_for_opcode(arm, A.cmp_reg(1, 2), el2())
        used = set()
        for j in res.trace.iter_events():
            from repro.isla.footprint import _event_uses

            used |= _event_uses(j)
        for j in res.trace.iter_events():
            if isinstance(j, E.DefineConst):
                assert j.var in used

    def test_declares_precede_uses(self, arm):
        res = trace_for_opcode(arm, A.ldrb_reg(4, 1, 3), el2())
        bound = set()
        for j in res.trace.events:
            if isinstance(j, E.DeclareConst):
                bound.add(j.var)
            else:
                from repro.isla.footprint import _event_uses

                for var in _event_uses(j):
                    if var.name.startswith("v"):
                        assert var in bound
                if isinstance(j, E.DefineConst):
                    bound.add(j.var)
