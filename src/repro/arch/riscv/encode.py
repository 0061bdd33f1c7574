"""RV64I instruction encoder.

Every word is packed through the field tables of
:mod:`repro.arch.riscv.spec` (see :mod:`repro.arch.encoding`); these
functions only turn operands into field values.  An operand that does not
fit raises ``ValueError``.
"""

from __future__ import annotations

from ..encoding import Encoding, aligned, bits, signed
from .spec import ARMS

#: The packer over the spec's field tables.
ENCODING = Encoding(ARMS)

RA = 1  # return-address register x1
SP = 2

ABI_NAMES = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15,
    "a6": 16, "a7": 17,
    **{f"s{i}": 16 + i for i in range(2, 12)},
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}


def reg(name: str | int) -> int:
    if isinstance(name, int):
        n = name
    else:
        n = ABI_NAMES.get(name)
        if n is None:
            if name.startswith("x") and name[1:].isdigit():
                n = int(name[1:])
            else:
                raise ValueError(f"unknown register {name}")
    if not 0 <= n <= 31:
        raise ValueError(f"register out of range: {n}")
    return n


def _i(arm: str, funct3: int, rd, rs1, imm: int) -> int:
    return ENCODING.pack(
        arm, imm12=signed(imm, 12, "imm"), rs1=reg(rs1), funct3=funct3,
        rd=reg(rd),
    )


def _shift(arm: str, funct3: int, rd, rs1, shamt: int, width: int,
           arith: bool = False) -> int:
    if not 0 <= shamt < width:
        raise ValueError(f"shift amount out of range: {shamt}")
    return ENCODING.pack(
        arm, imm12=shamt + (0x400 if arith else 0), rs1=reg(rs1),
        funct3=funct3, rd=reg(rd),
    )


def _r(arm: str, funct7: int, funct3: int, rd, rs1, rs2) -> int:
    return ENCODING.pack(
        arm, funct7=funct7, rs2=reg(rs2), rs1=reg(rs1), funct3=funct3,
        rd=reg(rd),
    )


def _s(funct3: int, rs2, rs1, imm: int) -> int:
    imm = signed(imm, 12, "imm")
    return ENCODING.pack(
        "store", imm11_5=bits(imm, 11, 5), rs2=reg(rs2), rs1=reg(rs1),
        funct3=funct3, imm4_0=bits(imm, 4, 0),
    )


def _b(funct3: int, rs1, rs2, offset: int) -> int:
    aligned(offset, 1, "branch offset")
    imm = signed(offset, 13, "branch offset")
    return ENCODING.pack(
        "branch", imm12=bits(imm, 12, 12), imm10_5=bits(imm, 10, 5),
        rs2=reg(rs2), rs1=reg(rs1), funct3=funct3, imm4_1=bits(imm, 4, 1),
        imm11=bits(imm, 11, 11),
    )


# -- U/J types ------------------------------------------------------------------


def lui(rd, imm20):
    return ENCODING.pack("lui", imm20=imm20, rd=reg(rd))


def auipc(rd, imm20):
    return ENCODING.pack("auipc", imm20=imm20, rd=reg(rd))


def jal(rd, offset):
    aligned(offset, 1, "jal offset")
    imm = signed(offset, 21, "jal offset")
    return ENCODING.pack(
        "jal", imm20=bits(imm, 20, 20), imm10_1=bits(imm, 10, 1),
        imm11=bits(imm, 11, 11), imm19_12=bits(imm, 19, 12), rd=reg(rd),
    )


def jalr(rd, rs1, imm=0):
    return _i("jalr", 0b000, rd, rs1, imm)


def ret():
    return jalr(0, RA, 0)


def j(offset):
    return jal(0, offset)


# -- branches ---------------------------------------------------------------------


def beq(rs1, rs2, offset):
    return _b(0b000, rs1, rs2, offset)


def bne(rs1, rs2, offset):
    return _b(0b001, rs1, rs2, offset)


def blt(rs1, rs2, offset):
    return _b(0b100, rs1, rs2, offset)


def bge(rs1, rs2, offset):
    return _b(0b101, rs1, rs2, offset)


def bltu(rs1, rs2, offset):
    return _b(0b110, rs1, rs2, offset)


def bgeu(rs1, rs2, offset):
    return _b(0b111, rs1, rs2, offset)


def beqz(rs1, offset):
    return beq(rs1, 0, offset)


def bnez(rs1, offset):
    return bne(rs1, 0, offset)


# -- loads/stores --------------------------------------------------------------------


def lb(rd, rs1, imm=0):
    return _i("load", 0b000, rd, rs1, imm)


def lh(rd, rs1, imm=0):
    return _i("load", 0b001, rd, rs1, imm)


def lw(rd, rs1, imm=0):
    return _i("load", 0b010, rd, rs1, imm)


def ld(rd, rs1, imm=0):
    return _i("load", 0b011, rd, rs1, imm)


def lbu(rd, rs1, imm=0):
    return _i("load", 0b100, rd, rs1, imm)


def lhu(rd, rs1, imm=0):
    return _i("load", 0b101, rd, rs1, imm)


def lwu(rd, rs1, imm=0):
    return _i("load", 0b110, rd, rs1, imm)


def sb(rs2, rs1, imm=0):
    return _s(0b000, rs2, rs1, imm)


def sh(rs2, rs1, imm=0):
    return _s(0b001, rs2, rs1, imm)


def sw(rs2, rs1, imm=0):
    return _s(0b010, rs2, rs1, imm)


def sd(rs2, rs1, imm=0):
    return _s(0b011, rs2, rs1, imm)


# -- OP-IMM / OP-IMM-32 ---------------------------------------------------------------------


def addi(rd, rs1, imm):
    return _i("op_imm", 0b000, rd, rs1, imm)


def slti(rd, rs1, imm):
    return _i("op_imm", 0b010, rd, rs1, imm)


def sltiu(rd, rs1, imm):
    return _i("op_imm", 0b011, rd, rs1, imm)


def xori(rd, rs1, imm):
    return _i("op_imm", 0b100, rd, rs1, imm)


def ori(rd, rs1, imm):
    return _i("op_imm", 0b110, rd, rs1, imm)


def andi(rd, rs1, imm):
    return _i("op_imm", 0b111, rd, rs1, imm)


def slli(rd, rs1, shamt):
    return _shift("op_imm", 0b001, rd, rs1, shamt, 64)


def srli(rd, rs1, shamt):
    return _shift("op_imm", 0b101, rd, rs1, shamt, 64)


def srai(rd, rs1, shamt):
    return _shift("op_imm", 0b101, rd, rs1, shamt, 64, arith=True)


def mv(rd, rs1):
    return addi(rd, rs1, 0)


def li(rd, imm):
    return addi(rd, 0, imm)


def nop():
    return addi(0, 0, 0)


def addiw(rd, rs1, imm):
    return _i("op_imm32", 0b000, rd, rs1, imm)


def slliw(rd, rs1, shamt):
    return _shift("op_imm32", 0b001, rd, rs1, shamt, 32)


def srliw(rd, rs1, shamt):
    return _shift("op_imm32", 0b101, rd, rs1, shamt, 32)


def sraiw(rd, rs1, shamt):
    return _shift("op_imm32", 0b101, rd, rs1, shamt, 32, arith=True)


# -- OP / OP-32 ------------------------------------------------------------------------------------


def add(rd, rs1, rs2):
    return _r("op", 0, 0b000, rd, rs1, rs2)


def sub(rd, rs1, rs2):
    return _r("op", 0b0100000, 0b000, rd, rs1, rs2)


def sll(rd, rs1, rs2):
    return _r("op", 0, 0b001, rd, rs1, rs2)


def slt(rd, rs1, rs2):
    return _r("op", 0, 0b010, rd, rs1, rs2)


def sltu(rd, rs1, rs2):
    return _r("op", 0, 0b011, rd, rs1, rs2)


def xor(rd, rs1, rs2):
    return _r("op", 0, 0b100, rd, rs1, rs2)


def srl(rd, rs1, rs2):
    return _r("op", 0, 0b101, rd, rs1, rs2)


def sra(rd, rs1, rs2):
    return _r("op", 0b0100000, 0b101, rd, rs1, rs2)


def or_(rd, rs1, rs2):
    return _r("op", 0, 0b110, rd, rs1, rs2)


def and_(rd, rs1, rs2):
    return _r("op", 0, 0b111, rd, rs1, rs2)


def addw(rd, rs1, rs2):
    return _r("op32", 0, 0b000, rd, rs1, rs2)


def subw(rd, rs1, rs2):
    return _r("op32", 0b0100000, 0b000, rd, rs1, rs2)


def sllw(rd, rs1, rs2):
    return _r("op32", 0, 0b001, rd, rs1, rs2)


def srlw(rd, rs1, rs2):
    return _r("op32", 0, 0b101, rd, rs1, rs2)


def sraw(rd, rs1, rs2):
    return _r("op32", 0b0100000, 0b101, rd, rs1, rs2)


# -- fence, Zicsr and machine-mode system instructions ---------------------------


def fence():
    """The full ``fence`` (every predecessor/successor bit), the only
    fence the model decodes: the arm's claim fixes the whole word."""
    return ENCODING.pack("fence")


CSR_NAMES = {
    "mstatus": 0x300, "misa": 0x301, "mie": 0x304, "mtvec": 0x305,
    "mscratch": 0x340, "mepc": 0x341, "mcause": 0x342, "mtval": 0x343,
    "mip": 0x344, "mhartid": 0xF14,
}


def _system(funct12: int, funct3: int = 0, rd=0, rs1: int = 0) -> int:
    return ENCODING.pack(
        "system", funct12=funct12, rs1=rs1, funct3=funct3, rd=reg(rd),
    )


def _csr(funct3: int, rd, rs1: int, csr) -> int:
    if isinstance(csr, str):
        if csr not in CSR_NAMES:
            raise ValueError(f"unknown CSR {csr}")
        csr = CSR_NAMES[csr]
    return _system(csr, funct3, rd, rs1)


def csrrw(rd, csr, rs1):
    return _csr(0b001, rd, reg(rs1), csr)


def csrrs(rd, csr, rs1):
    return _csr(0b010, rd, reg(rs1), csr)


def csrrc(rd, csr, rs1):
    return _csr(0b011, rd, reg(rs1), csr)


def csrrwi(rd, csr, uimm):
    return _csr(0b101, rd, uimm, csr)


def csrrsi(rd, csr, uimm):
    return _csr(0b110, rd, uimm, csr)


def csrrci(rd, csr, uimm):
    return _csr(0b111, rd, uimm, csr)


def csrr(rd, csr):
    """csrr rd, csr == csrrs rd, csr, x0"""
    return csrrs(rd, csr, 0)


def csrw(csr, rs1):
    """csrw csr, rs == csrrw x0, csr, rs"""
    return csrrw(0, csr, rs1)


def ecall():
    return _system(0)


def ebreak():
    return _system(1)


def mret():
    return _system(0x302)


def wfi():
    return _system(0x105)


def assemble(opcodes: list[int]) -> bytes:
    out = bytearray()
    for op in opcodes:
        if not 0 <= op < (1 << 32):
            raise ValueError(f"opcode out of range: {op:#x}")
        out += op.to_bytes(4, "little")
    return bytes(out)
