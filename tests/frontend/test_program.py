"""Tests for the frontend: program images and instruction-map generation."""

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.frontend import (
    ProgramImage,
    generate_instruction_map,
    install_traces,
    load_image_into_state,
)
from repro.isla import Assumptions
from repro.itl import MachineState
from repro.smt import builder as B



class TestProgramImage:
    def test_place_and_labels(self):
        image = ProgramImage().place(0x1000, [A.nop(), A.ret()], label="f")
        assert image["f"] == 0x1000
        assert sorted(image.opcodes) == [0x1000, 0x1004]

    def test_overlap_rejected(self):
        image = ProgramImage().place(0x1000, [A.nop(), A.nop()])
        with pytest.raises(ValueError):
            image.place(0x1004, [A.nop()])

    def test_concrete_bytes_little_endian(self):
        image = ProgramImage().place(0x1000, [0x11223344])
        assert image.concrete_bytes()[0x1000] == bytes([0x44, 0x33, 0x22, 0x11])

    def test_symbolic_opcode_bytes_rejected(self):
        image = ProgramImage().place(0x1000, [B.bv_var("op", 32)])
        with pytest.raises(ValueError):
            image.concrete_bytes()

    def test_symbolic_constant_opcode_ok(self):
        image = ProgramImage().place(0x1000, [B.bv(A.nop(), 32)])
        assert image.concrete_bytes()[0x1000] == A.nop().to_bytes(4, "little")

    def test_load_into_state(self):
        image = ProgramImage().place(0x1000, [A.nop()])
        state = MachineState()
        load_image_into_state(image, state)
        assert state.read_mem(0x1000, 4) == A.nop()


class TestInstructionMapGeneration:
    def test_per_address_assumptions_override(self):
        image = ProgramImage().place(0x1000, [A.b_cond("eq", -16), A.b_cond("eq", -16)])
        pinned = Assumptions().pin("PSTATE.Z", 1, 1)
        fe = generate_instruction_map(
            ArmModel(), image, Assumptions(), per_address={0x1004: pinned}
        )
        # Unpinned instruction branches; the pinned one is linear.
        assert fe.traces[0x1000].cases is not None
        assert fe.traces[0x1004].cases is None

    def test_metrics_aggregate(self):
        image = ProgramImage().place(0x1000, [A.nop(), A.nop()])
        fe = generate_instruction_map(ArmModel(), image, Assumptions())
        assert fe.total_events == sum(t.num_events() for t in fe.traces.values())
        assert fe.total_paths == 2
        assert fe.total_model_steps > 0

    def test_install_traces(self):
        image = ProgramImage().place(0x1000, [A.nop()])
        fe = generate_instruction_map(ArmModel(), image, Assumptions())
        state = MachineState()
        install_traces(fe.traces, state)
        assert state.instr_at(0x1000) is fe.traces[0x1000]
