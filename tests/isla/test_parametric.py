"""The spec field tables (``arch/*/spec.py``) on real instructions.

Each decode arm has one ``(name, hi, lo)`` field table, and every encoder
and assembler packs its words through it.  These tests pin the tables on
one assembled line per arm: the arm's fields tile the word MSB-first and
rebuild it, and the operand fields survive a disassemble/assemble round
trip through the independent disassembler.

The module keeps the name it had when a per-arm decode layout fed
parametric trace serving (both since deleted), so its test ids stay
stable.
"""

import pytest

from repro.analysis.isaspec import eval_clauses, fixed_bits_of
from repro.arch.arm import asm as arm_asm
from repro.arch.arm import decode as arm_decode
from repro.arch.arm import spec as arm_spec
from repro.arch.ppc import asm as ppc_asm
from repro.arch.ppc import decode as ppc_decode
from repro.arch.ppc import spec as ppc_spec
from repro.arch.riscv import asm as riscv_asm
from repro.arch.riscv import decode as riscv_decode
from repro.arch.riscv import spec as riscv_spec

ARM_ARM_LINES = [
    ("addsub_imm", "add x1, x2, #12"),
    ("addsub_reg", "add x1, x2, x3"),
    ("logical_reg", "orr x1, x2, x3"),
    ("logical_imm", "and x1, x2, #0xff0"),
    ("movewide", "movz x9, #42"),
    ("bitfield", "ubfm x1, x2, #3, #5"),
    ("csel", "csel x1, x2, x3, eq"),
    ("ccmp", "ccmp x1, x2, #3, ne"),
    ("ccmp", "ccmp x1, #5, #3, ne"),
    ("div", "sdiv x1, x2, x3"),
    ("rbit", "rbit x1, x2"),
    ("ldst_imm", "ldr x1, [x2, #8]"),
    ("ldst_reg", "ldr x1, [x2, x3]"),
    ("ldst_imm9", "ldur x1, [x2, #-8]"),
    ("ldst_pair", "ldp x1, x2, [x3]"),
    ("adr", "adr x1, #16"),
    ("madd", "madd x1, x2, x3, x4"),
    ("cbz", "cbz x1, #8"),
    ("tbz", "tbz x1, #3, #8"),
    ("bcond", "b.eq #-16"),
    ("b_bl", "b #16"),
    ("br_blr_ret", "ret"),
    ("hint", "nop"),
    ("sysreg", "mrs x1, esr_el2"),
    ("hvc", "hvc #1"),
]

RISCV_ARM_LINES = [
    ("lui", "lui t0, 0x123"),
    ("auipc", "auipc t0, 1"),
    ("jal", "jal t0, 8"),
    ("jalr", "jalr t0, 4(t1)"),
    ("branch", "beq t0, t1, 8"),
    ("load", "lw t0, 4(t1)"),
    ("store", "sw t0, 4(t1)"),
    ("op_imm", "addi t0, t1, 5"),
    ("op_imm", "srli t0, t1, 3"),
    ("op_imm32", "addiw t0, t1, 5"),
    ("op", "add t0, t1, t2"),
    ("op32", "addw t0, t1, t2"),
    ("fence", "fence"),
    ("system", "ecall"),
    ("system", "csrrw t0, mscratch, t1"),
]

PPC_ARM_LINES = [
    ("addi", "addi r3, r4, -5"),
    ("addis", "lis r6, 17"),
    ("ori", "ori r3, r4, 255"),
    ("oris", "oris r5, r6, 1"),
    ("xori", "xori r7, r8, 61680"),
    ("xoris", "xoris r9, r10, 32768"),
    ("andi", "andi. r11, r12, 255"),
    ("andis", "andis. r13, r14, 3"),
    ("cmpi", "cmpdi cr1, r3, -1"),
    ("cmpli", "cmplwi cr2, r6, 65535"),
    ("cmp", "cmpd cr0, r3, r4"),
    ("cmpl", "cmplw cr3, r9, r10"),
    ("add", "add r3, r4, r5"),
    ("subf", "subf r6, r7, r8"),
    ("and", "and r9, r10, r11"),
    ("or", "or r12, r13, r14"),
    ("xor", "xor r17, r18, r19"),
    ("mtspr", "mtctr r3"),
    ("mfspr", "mflr r7"),
    ("lwz", "lwz r3, 8(r4)"),
    ("lbz", "lbz r6, -1(r7)"),
    ("stw", "stw r8, 12(r9)"),
    ("stb", "stb r10, -3(r11)"),
    ("ld", "ld r3, 16(r4)"),
    ("std", "std r7, -24(r8)"),
    ("b", "bl -12"),
    ("bc", "bne cr2, -16"),
    ("bclr", "bclr 12, 2"),
    ("bcctr", "bctrl"),
]

_ISAS = {
    "arm": (arm_decode, arm_asm, arm_spec, ARM_ARM_LINES),
    "riscv": (riscv_decode, riscv_asm, riscv_spec, RISCV_ARM_LINES),
    "ppc": (ppc_decode, ppc_asm, ppc_spec, PPC_ARM_LINES),
}

_DECODE_CASES = [
    pytest.param(decode, asm, spec, arm, line, id=f"{isa}-{line}")
    for isa, (decode, asm, spec, lines) in _ISAS.items()
    for arm, line in lines
]


def _fields(spec, arm):
    return next(a.fields for a in spec.ARMS if a.name == arm)


def _operands(spec, arm, op):
    """The values of the fields the arm's claim leaves free."""
    claim = next(a.match for a in spec.ARMS if a.name == arm)
    fixed, _ = fixed_bits_of(claim)
    return {
        name: (op >> lo) & ((1 << (hi - lo + 1)) - 1)
        for name, hi, lo in _fields(spec, arm)
        if (((1 << (hi - lo + 1)) - 1) << lo) & ~fixed
    }


class TestDecodeFields:
    @pytest.mark.parametrize("decode,asm,spec,arm,line", _DECODE_CASES)
    def test_fields_tile_and_reconstruct(self, decode, asm, spec, arm, line):
        op = asm.assemble_line(line)
        assert decode.decode_arm(op) == arm
        fields = _fields(spec, arm)
        # MSB-first, contiguous, tiling the full 32-bit word.
        assert fields[0][1] == 31 and fields[-1][2] == 0
        for (_, _, lo), (_, hi, _) in zip(fields, fields[1:]):
            assert lo == hi + 1
        rebuilt = 0
        for _, hi, lo in fields:
            rebuilt |= ((op >> lo) & ((1 << (hi - lo + 1)) - 1)) << lo
        assert rebuilt == op

    @pytest.mark.parametrize("decode,asm,spec,arm,line", _DECODE_CASES)
    def test_operands_roundtrip_through_asm(self, decode, asm, spec, arm, line):
        op = asm.assemble_line(line)
        reassembled = asm.assemble_line(decode.disassemble(op))
        assert reassembled == op
        assert _operands(spec, arm, reassembled) == _operands(spec, arm, op)

    def test_every_arm_arm_covered(self):
        assert {arm for arm, _ in ARM_ARM_LINES} == set(arm_decode.DECODE_ARMS)

    def test_every_riscv_arm_covered(self):
        assert {arm for arm, _ in RISCV_ARM_LINES} == set(riscv_decode.DECODE_ARMS)

    def test_every_ppc_arm_covered(self):
        assert {arm for arm, _ in PPC_ARM_LINES} == set(ppc_decode.DECODE_ARMS)

    def test_out_of_subset_returns_none(self):
        """Words outside the modelled subset match no arm's field table."""
        for spec, word in ((arm_spec, 0xFFFFFFFF), (riscv_spec, 0)):
            assert not [a for a in spec.ARMS if eval_clauses(a.match, word)]
