"""Tests for §5 translation validation: ``m ~ t`` simulation checking,
the free-monad reification, and counterexample detection."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.arch.riscv import RiscvModel, encode as RV
from repro.isla import Assumptions, trace_for_opcode
from repro.itl import Trace, WriteReg
from repro.itl.events import Reg
from repro.smt import builder as B
from repro.validation import (
    RefinementError,
    StateFamily,
    effects_match_trace,
    interpret,
    reify,
    simulate_instruction,
    validate_program,
)

ARM = ArmModel()
RISCV = RiscvModel()


def arm_assms():
    return Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)


class TestSimulation:
    def test_arm_add_simulates(self):
        opcode = A.add_imm(0, 1, 5)
        trace = trace_for_opcode(ARM, opcode, arm_assms()).trace
        family = StateFamily(
            fixed={"PSTATE.EL": 2, "PSTATE.SP": 1}, vary=["R0", "R1"]
        )
        report = simulate_instruction(ARM, opcode, trace, family, samples=12)
        assert report.states_checked == 12

    def test_riscv_branch_simulates_both_ways(self):
        opcode = RV.beqz("a0", 16)
        trace = trace_for_opcode(RISCV, opcode, Assumptions()).trace
        family = StateFamily(vary=["x10"])
        simulate_instruction(RISCV, opcode, trace, family, samples=12)

    def test_tampered_trace_detected(self):
        """A corrupted trace (wrong result register) must be caught."""
        opcode = RV.addi("a0", "a1", 1)
        trace = trace_for_opcode(RISCV, opcode, Assumptions()).trace
        # Corrupt: redirect the write of x10 to x11.
        events = tuple(
            WriteReg(Reg("x11"), j.value)
            if isinstance(j, WriteReg) and j.reg == Reg("x10")
            else j
            for j in trace.events
        )
        bad = Trace(events, trace.cases)
        family = StateFamily(vary=["x11"])
        with pytest.raises(RefinementError):
            simulate_instruction(RISCV, opcode, bad, family, samples=4)

    def test_wrong_constant_detected(self):
        opcode = RV.addi("a0", "a1", 1)
        good = trace_for_opcode(RISCV, opcode, Assumptions()).trace
        # Simulate against a different instruction's trace.
        other = trace_for_opcode(RISCV, RV.addi("a0", "a1", 2), Assumptions()).trace
        family = StateFamily(vary=["x11"])
        with pytest.raises(RefinementError):
            simulate_instruction(RISCV, opcode, other, family, samples=4)

    def test_violated_assumption_is_bottom(self):
        """Running a trace outside its assumptions reaches ⊥, reported as a
        refinement failure."""
        opcode = A.add_imm(31, 31, 0x40)  # add sp, sp (assumes EL2/SP1)
        trace = trace_for_opcode(ARM, opcode, arm_assms()).trace
        family = StateFamily(fixed={"PSTATE.EL": 1, "PSTATE.SP": 1}, vary=["SP_EL2"])
        with pytest.raises(RefinementError, match="⊥"):
            simulate_instruction(ARM, opcode, trace, family, samples=1)


#: The model runs ``add t0, t1, t2`` (writes x5) against the trace of
#: ``add a0, t1, t2`` (writes x10), so two registers diverge.
_TWO_REGISTERS_DIVERGE = """
from repro.arch.riscv import RiscvModel, encode as RV
from repro.isla import Assumptions, trace_for_opcode
from repro.itl.events import Reg
from repro.validation import RefinementError, simulate_state

model = RiscvModel()
opcode = RV.add("t0", "t1", "t2")
trace = trace_for_opcode(model, RV.add("a0", "t1", "t2"), Assumptions()).trace
state = model.initial_state()
state.write_reg(model.pc_reg, 0x1000)
state.write_reg(Reg("x6"), 1)
state.write_reg(Reg("x7"), 2)
state.load_bytes(0x1000, opcode.to_bytes(4, "little"))
try:
    simulate_state(model, opcode, trace, state)
except RefinementError as exc:
    print(exc)
"""


class TestCounterexampleDeterminism:
    def test_first_diverging_register_does_not_depend_on_the_hash_seed(self):
        """With x5 and x10 both diverging, every hash seed reports the
        register that sorts first.  Iterating a ``set`` of registers
        names x10 under seeds 0 and 1 but x5 under seeds 5 and 7."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        texts = set()
        for seed in ("0", "1", "5", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", _TWO_REGISTERS_DIVERGE],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            texts.add(run.stdout.strip())
        assert texts == {
            f"opcode {RV.add('t0', 't1', 't2'):#010x}: register x10 diverges: "
            f"model=0 vs ITL=3"
        }


class TestValidateProgram:
    def test_riscv_memcpy_binary(self):
        """The paper's §5 evaluation: every instruction of the RISC-V memcpy."""
        from repro.casestudies import memcpy_riscv

        case = memcpy_riscv.build(n=2)
        family = StateFamily(
            fixed={"x10": 0x5000, "x11": 0x5100},
            vary=["x12", "x13", "x1"],
            mem_ranges=[(0x5000, 8), (0x5100, 8)],
            pc=0x2000,
        )
        result = validate_program(
            RISCV, dict(case.image.opcodes), case.frontend.traces, family, samples=10
        )
        assert result.instructions == 8
        assert result.total_states == 80

    def test_arm_memcpy_binary(self):
        from repro.casestudies import memcpy_arm

        case = memcpy_arm.build(n=2)
        family = StateFamily(
            fixed={
                "PSTATE.EL": 2, "PSTATE.SP": 1,
                "R0": 0x5000, "R1": 0x5100,
            },
            vary=["R2", "R3", "R4", "R30"],
            mem_ranges=[(0x5000, 8), (0x5100, 8)],
            pc=0x2000,
        )
        result = validate_program(
            ARM, dict(case.image.opcodes), case.frontend.traces, family, samples=8
        )
        assert result.instructions == 8


class TestFreeMonad:
    def test_reify_and_interpret_agree(self):
        state = RISCV.initial_state()
        state.write_reg(Reg("PC"), 0x1000)
        state.write_reg(Reg("x11"), 41)
        opcode = RV.addi("a0", "a1", 1)
        effects = reify(RISCV, opcode, state.copy())
        replay = state.copy()
        interpret(effects, replay)
        assert replay.read_reg(Reg("x10")) == 42

    def test_effects_record_branches(self):
        from repro.validation.freemonad import EBranch

        state = RISCV.initial_state()
        state.write_reg(Reg("PC"), 0x1000)
        state.write_reg(Reg("x10"), 0)
        effects = reify(RISCV, RV.beqz("a0", 16), state)
        assert any(isinstance(e, EBranch) and e.taken for e in effects)

    def test_effects_match_trace(self):
        opcode = RV.addi("a0", "a1", 7)
        trace = trace_for_opcode(RISCV, opcode, Assumptions()).trace
        state = RISCV.initial_state()
        state.write_reg(Reg("PC"), 0x1000)
        state.write_reg(Reg("x11"), 100)
        effects = reify(RISCV, opcode, state.copy())
        assert effects_match_trace(effects, trace, state)

    def test_interpret_detects_divergent_read(self):
        state = RISCV.initial_state()
        state.write_reg(Reg("PC"), 0x1000)
        state.write_reg(Reg("x11"), 41)
        effects = reify(RISCV, RV.addi("a0", "a1", 1), state.copy())
        state.write_reg(Reg("x11"), 999)  # perturb
        with pytest.raises(ValueError):
            interpret(effects, state)
