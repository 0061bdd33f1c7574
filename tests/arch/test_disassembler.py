"""Tests for the disassemblers, including encode→decode roundtrips."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.arch.arm import encode as A
from repro.arch.arm.decode import disassemble as dis_arm
from repro.arch.arm.decode import try_disassemble as try_arm
from repro.arch.riscv import encode as RV
from repro.arch.riscv.decode import disassemble as dis_rv
from repro.arch.riscv.decode import try_disassemble as try_rv


class TestArmKnown:
    @pytest.mark.parametrize(
        "opcode,text",
        [
            (A.add_imm(31, 31, 0x40), "add sp, sp, #64"),
            (A.cmp_reg(2, 3), "cmp x2, x3"),
            (A.cmp_imm(10, 0x16), "cmp x10, #22"),
            (A.mov_imm(0, 42), "mov x0, #0x2a"),
            (A.movk(9, 0xBEEF, hw=2), "movk x9, #0xbeef, lsl #32"),
            (A.movn(0, 0), "movn x0, #0x0"),
            (A.mov_reg(1, 2), "mov x1, x2"),
            (A.tst_imm(2, 0x20, sf=0), "tst w2, #0x20"),
            (A.lsr_imm(10, 10, 26), "lsr x10, x10, #26"),
            (A.lsl_imm(1, 2, 4), "lsl x1, x2, #4"),
            (A.ldrb_reg(4, 1, 3), "ldrb w4, [x1, x3]"),
            (A.strb_reg(4, 0, 3), "strb w4, [x0, x3]"),
            (A.ldr64_imm(0, 1, 16), "ldr x0, [x1, #16]"),
            (A.str32_imm(0, 3), "str w0, [x3]"),
            (A.ldr64_reg(0, 21, 25), "ldr x0, [x21, x25, lsl #3]"),
            (A.cbz(2, 28), "cbz x2, #28"),
            (A.cbnz(0, -8), "cbnz x0, #-8"),
            (A.b_cond("ne", -16), "b.ne #-16"),
            (A.b_cond("eq", 8), "b.eq #8"),
            (A.b(0), "b #0"),
            (A.bl(64), "bl #64"),
            (A.br(5), "br x5"),
            (A.blr(23), "blr x23"),
            (A.ret(), "ret"),
            (A.eret(), "eret"),
            (A.nop(), "nop"),
            (A.hvc(0), "hvc #0x0"),
            (A.msr("VBAR_EL2", 0), "msr vbar_el2, x0"),
            (A.mrs(10, "ESR_EL2"), "mrs x10, esr_el2"),
            (A.rbit(0, 1), "rbit x0, x1"),
            (A.csel(0, 1, 2, "eq"), "csel x0, x1, x2, eq"),
            (A.cset(0, "lt"), "cset x0, lt"),
            (A.stp64_pre(29, 30, 31, -16), "stp x29, x30, [sp, #-16]!"),
            (A.ldp64_post(29, 30, 31, 16), "ldp x29, x30, [sp], #16"),
            (A.stp64(1, 2, 3, 16), "stp x1, x2, [x3, #16]"),
            (A.ldp64(1, 2, 3), "ldp x1, x2, [x3]"),
            (A.str64_pre(0, 1, -8), "str x0, [x1, #-8]!"),
            (A.ldr64_post(0, 1, 8), "ldr x0, [x1], #8"),
            (A.ldur64(0, 1, -3), "ldur x0, [x1, #-3]"),
            (A.adr(0, 0x400), "adr x0, #1024"),
            (A.adrp(0, 2), "adrp x0, #8192"),
            (A.mul(0, 1, 2), "mul x0, x1, x2"),
            (A.madd(0, 1, 2, 3), "madd x0, x1, x2, x3"),
            (A.msub(0, 1, 2, 3), "msub x0, x1, x2, x3"),
        ],
    )
    def test_disassembly(self, opcode, text):
        assert dis_arm(opcode) == text

    def test_unknown_raises(self):
        from repro.arch.arm.decode import UnknownInstruction

        with pytest.raises(UnknownInstruction):
            dis_arm(0xFFFFFFFF)
        assert try_arm(0xFFFFFFFF).startswith(".word")


class TestArmConditionAliases:
    """Every condition name ``encode.COND`` maps, the ``hs``/``lo``
    aliases included, assembles to the word of its canonical name."""

    CANONICAL = {"hs": "cs", "lo": "cc"}

    @pytest.mark.parametrize("name", sorted(A.COND))
    @pytest.mark.parametrize("template,cond_lo", [
        ("b.{} #8", 0), ("csel x1, x2, x3, {}", 12),
        ("ccmp x1, x2, #0x4, {}", 12), ("ccmn w1, #0x3, #0x0, {}", 12),
    ])
    def test_alias_assembles_like_its_canonical_name(self, name, template, cond_lo):
        from repro.arch.arm.asm import assemble_line

        canonical = self.CANONICAL.get(name, name)
        word = assemble_line(template.format(name))
        assert word == assemble_line(template.format(canonical))
        assert (word >> cond_lo) & 0xF == A.COND[name]


class TestRiscvKnown:
    @pytest.mark.parametrize(
        "opcode,text",
        [
            (RV.addi("a2", "a2", -1), "addi a2, a2, -1"),
            (RV.li("a0", -1), "li a0, -1"),
            (RV.mv("a1", "s4"), "mv a1, s4"),
            (RV.nop(), "nop"),
            (RV.lb("a3", "a1", 0), "lb a3, 0(a1)"),
            (RV.sb("a3", "a0", 0), "sb a3, 0(a0)"),
            (RV.ld("a0", "t0", 8), "ld a0, 8(t0)"),
            (RV.sd("s1", "sp", -16), "sd s1, -16(sp)"),
            (RV.beqz("a2", 28), "beqz a2, 28"),
            (RV.bnez("a2", -20), "bnez a2, -20"),
            (RV.blt("a0", "zero", 12), "blt a0, zero, 12"),
            (RV.ret(), "ret"),
            (RV.jal("ra", 2048), "jal ra, 2048"),
            (RV.j(-8), "j -8"),
            (RV.jalr("ra", "s5", 0), "jalr ra, 0(s5)"),
            (RV.lui("t0", 0x80), "lui t0, 0x80"),
            (RV.auipc("a0", 1), "auipc a0, 0x1"),
            (RV.slli("t0", "s7", 3), "slli t0, s7, 3"),
            (RV.srai("a0", "a0", 63), "srai a0, a0, 63"),
            (RV.add("s7", "s1", "s2"), "add s7, s1, s2"),
            (RV.sub("a0", "a1", "a2"), "sub a0, a1, a2"),
            (RV.addw("a0", "a1", "a2"), "addw a0, a1, a2"),
            (RV.sltu("a0", "a1", "a2"), "sltu a0, a1, a2"),
        ],
    )
    def test_disassembly(self, opcode, text):
        assert dis_rv(opcode) == text

    def test_unknown(self):
        assert try_rv(0xFFFFFFFF).startswith(".word")


class TestRoundtripProperties:
    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 4095))
    @settings(max_examples=60, deadline=None)
    def test_arm_add_imm_roundtrip(self, rd, rn, imm):
        text = dis_arm(A.add_imm(rd, rn, imm))
        assert text == f"add x{rd}, x{rn}, #{imm}"

    @given(st.integers(1, 31), st.integers(0, 31), st.integers(-2048, 2047))
    @settings(max_examples=60, deadline=None)
    def test_riscv_addi_roundtrip(self, rd, rs1, imm):
        from repro.arch.riscv.decode import ABI

        text = dis_rv(RV.addi(rd, rs1, imm))
        if rs1 == 0:
            assert text == f"li {ABI[rd]}, {imm}"
        elif imm == 0:
            assert text == f"mv {ABI[rd]}, {ABI[rs1]}"
        else:
            assert text == f"addi {ABI[rd]}, {ABI[rs1]}, {imm}"

    def test_every_casestudy_opcode_decodes(self):
        """Every instruction in every case study disassembles (no .word)."""
        from repro.casestudies import (
            binsearch_arm, binsearch_riscv, hvc, memcpy_arm, memcpy_riscv,
            rbit, uart, unaligned,
        )

        arm_cases = [
            memcpy_arm.build_image(), hvc.build_image(),
            unaligned.build_image(), uart.build_image(),
            rbit.build_image(), binsearch_arm.build_image(),
        ]
        for image in arm_cases:
            for addr, op in image.opcodes.items():
                if isinstance(op, int):
                    assert not try_arm(op).startswith(".word"), hex(op)
        for image in (memcpy_riscv.build_image(), binsearch_riscv.build_image()):
            for addr, op in image.opcodes.items():
                assert not try_rv(op).startswith(".word"), hex(op)
