"""The structured operand decode layer (``arch.*.decode.decode_fields``).

Each decode arm exposes a per-word bit layout of ``reg``, ``imm`` and
``struct`` fields; the ISA specs (``arch/*/spec.py``) are checked against
it.  These tests pin the layer on one assembled line per arm: the fields
tile the word MSB-first and rebuild it, and the decoded operands survive
a disassemble/assemble round trip.

The module keeps the name it had when this layer fed parametric trace
serving (since deleted), so its test ids stay stable.
"""

import pytest

from repro.arch.arm import asm as arm_asm
from repro.arch.arm import decode as arm_decode
from repro.arch.riscv import asm as riscv_asm
from repro.arch.riscv import decode as riscv_decode

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

_DECODE_CASES = [
    pytest.param(arm_decode, arm_asm, arm, line, id=f"arm-{line}")
    for arm, line in ARM_ARM_LINES
] + [
    pytest.param(riscv_decode, riscv_asm, arm, line, id=f"riscv-{line}")
    for arm, line in RISCV_ARM_LINES
]


class TestDecodeFields:
    @pytest.mark.parametrize("decode,asm,arm,line", _DECODE_CASES)
    def test_fields_tile_and_reconstruct(self, decode, asm, arm, line):
        op = asm.assemble_line(line)
        decoded = decode.decode_fields(op)
        assert decoded is not None
        got_arm, fields = decoded
        assert got_arm == arm
        # MSB-first, contiguous, tiling the full 32-bit word.
        assert fields[0][1] == 31 and fields[-1][2] == 0
        for (_, _, lo, _), (_, hi, _, _) in zip(fields, fields[1:]):
            assert lo == hi + 1
        rebuilt = 0
        for name, hi, lo, kind in fields:
            assert kind in ("reg", "imm", "struct"), name
            rebuilt |= ((op >> lo) & ((1 << (hi - lo + 1)) - 1)) << lo
        assert rebuilt == op

    @pytest.mark.parametrize("decode,asm,arm,line", _DECODE_CASES)
    def test_operands_roundtrip_through_asm(self, decode, asm, arm, line):
        op = asm.assemble_line(line)
        reassembled = asm.assemble_line(decode.disassemble(op))
        assert reassembled == op
        operands = decode.decode_operands(op)
        assert operands is not None
        assert decode.decode_operands(reassembled) == operands

    def test_every_arm_arm_covered(self):
        assert {arm for arm, _ in ARM_ARM_LINES} == (
            set(arm_decode._FIELD_TABLES) | {"ccmp"}
        )

    def test_every_riscv_arm_covered(self):
        assert {arm for arm, _ in RISCV_ARM_LINES} == set(
            riscv_decode._MAJOR_ARMS.values()
        )

    def test_out_of_subset_returns_none(self):
        assert arm_decode.decode_fields(0xFFFFFFFF) is None
        assert arm_decode.decode_operands(0xFFFFFFFF) is None
        assert riscv_decode.decode_fields(0) is None
