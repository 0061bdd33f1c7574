"""A64 instruction encoder (assembler).

Produces the 32-bit opcodes the case studies verify.  Register operands are
integers 0..31 (31 = XZR/WZR or SP depending on context, as in the real
encoding).  All encoders return ints; :func:`assemble` packs a sequence into
little-endian bytes.
"""

from __future__ import annotations

from functools import lru_cache

from .regs import SYSREG_ENCODINGS

XZR = 31
SP = 31
LR = 30

COND = {
    "eq": 0, "ne": 1, "cs": 2, "hs": 2, "cc": 3, "lo": 3, "mi": 4, "pl": 5,
    "vs": 6, "vc": 7, "hi": 8, "ls": 9, "ge": 10, "lt": 11, "gt": 12,
    "le": 13, "al": 14,
}


def _check_reg(r: int) -> int:
    if not 0 <= r <= 31:
        raise ValueError(f"register out of range: {r}")
    return r


def _check_range(value: int, bits: int, what: str) -> int:
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{what} out of range: {value}")
    return value


def _branch_offset(offset_bytes: int, bits: int) -> int:
    if offset_bytes % 4:
        raise ValueError("branch offset must be a multiple of 4")
    words = offset_bytes // 4
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= words <= hi:
        raise ValueError(f"branch offset {offset_bytes} out of range")
    return words & ((1 << bits) - 1)


# -- arithmetic --------------------------------------------------------------


def add_imm(rd: int, rn: int, imm12: int, sf: int = 1, shift12: bool = False) -> int:
    return (
        (sf << 31) | (0b00100010 << 23) | (int(shift12) << 22)
        | (_check_range(imm12, 12, "imm12") << 10)
        | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def sub_imm(rd: int, rn: int, imm12: int, sf: int = 1) -> int:
    return add_imm(rd, rn, imm12, sf) | (1 << 30)


def adds_imm(rd: int, rn: int, imm12: int, sf: int = 1) -> int:
    return add_imm(rd, rn, imm12, sf) | (1 << 29)


def subs_imm(rd: int, rn: int, imm12: int, sf: int = 1) -> int:
    return add_imm(rd, rn, imm12, sf) | (1 << 30) | (1 << 29)


def cmp_imm(rn: int, imm12: int, sf: int = 1) -> int:
    return subs_imm(XZR, rn, imm12, sf)


def add_reg(rd: int, rn: int, rm: int, sf: int = 1, shift: int = 0, amount: int = 0) -> int:
    return (
        (sf << 31) | (0b0001011 << 24) | (shift << 22)
        | (_check_reg(rm) << 16) | (_check_range(amount, 6, "shift") << 10)
        | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def sub_reg(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return add_reg(rd, rn, rm, sf) | (1 << 30)


def subs_reg(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return add_reg(rd, rn, rm, sf) | (1 << 30) | (1 << 29)


def adds_reg(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return add_reg(rd, rn, rm, sf) | (1 << 29)


def cmp_reg(rn: int, rm: int, sf: int = 1) -> int:
    return subs_reg(XZR, rn, rm, sf)


# -- logical -------------------------------------------------------------------


def _logical_reg(opc: int, rd: int, rn: int, rm: int, sf: int, shift: int, amount: int, invert: int = 0) -> int:
    return (
        (sf << 31) | (opc << 29) | (0b01010 << 24) | (shift << 22) | (invert << 21)
        | (_check_reg(rm) << 16) | (_check_range(amount, 6, "shift") << 10)
        | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def and_reg(rd, rn, rm, sf=1):
    return _logical_reg(0b00, rd, rn, rm, sf, 0, 0)


def orr_reg(rd, rn, rm, sf=1, amount=0, shift=0):
    return _logical_reg(0b01, rd, rn, rm, sf, shift, amount)


def eor_reg(rd, rn, rm, sf=1):
    return _logical_reg(0b10, rd, rn, rm, sf, 0, 0)


def ands_reg(rd, rn, rm, sf=1):
    return _logical_reg(0b11, rd, rn, rm, sf, 0, 0)


def tst_reg(rn, rm, sf=1):
    return ands_reg(XZR, rn, rm, sf)


def mov_reg(rd: int, rm: int, sf: int = 1) -> int:
    """MOV (register) = ORR rd, xzr, rm."""
    return orr_reg(rd, XZR, rm, sf)


@lru_cache(maxsize=None)
def _bitmask_table(datasize: int) -> dict[int, tuple[int, int, int]]:
    """Every logical immediate of ``datasize`` bits -> its ``(N, immr,
    imms)``.  Encodings are walked by element size, then ``s``, then ``r``,
    and the first one found for a value is kept."""
    from .model import decode_bit_masks

    table: dict[int, tuple[int, int, int]] = {}
    for esize_log in range(1, 7):
        esize = 1 << esize_log
        if esize > datasize:
            break
        immn = 1 if esize == 64 else 0
        for s in range(esize - 1):
            imms = s if esize == 64 else (~(esize * 2 - 1) & 0x3F) | s
            for r in range(esize):
                value = decode_bit_masks(immn, imms, r, datasize)
                table.setdefault(value, (immn, r, imms))
    return table


def encode_bitmask_immediate(value: int, datasize: int) -> tuple[int, int, int]:
    """Inverse of DecodeBitMasks: find (N, immr, imms) encoding ``value``.

    Raises ValueError when the value is not encodable as a logical immediate.
    """
    try:
        return _bitmask_table(datasize)[value]
    except KeyError:
        raise ValueError(f"0x{value:x} is not a logical immediate") from None


def and_imm(rd: int, rn: int, value: int, sf: int = 1) -> int:
    datasize = 64 if sf else 32
    immn, immr, imms = encode_bitmask_immediate(value, datasize)
    return (
        (sf << 31) | (0b00 << 29) | (0b100100 << 23) | (immn << 22)
        | (immr << 16) | (imms << 10) | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def ands_imm(rd: int, rn: int, value: int, sf: int = 1) -> int:
    return and_imm(rd, rn, value, sf) | (0b11 << 29)


def tst_imm(rn: int, value: int, sf: int = 1) -> int:
    return ands_imm(XZR, rn, value, sf)


# -- move wide --------------------------------------------------------------------


def _movewide(opc: int, rd: int, imm16: int, hw: int, sf: int) -> int:
    return (
        (sf << 31) | (opc << 29) | (0b100101 << 23)
        | (_check_range(hw, 2, "hw") << 21)
        | (_check_range(imm16, 16, "imm16") << 5) | _check_reg(rd)
    )


def movz(rd: int, imm16: int, hw: int = 0, sf: int = 1) -> int:
    return _movewide(0b10, rd, imm16, hw, sf)


def movn(rd: int, imm16: int, hw: int = 0, sf: int = 1) -> int:
    return _movewide(0b00, rd, imm16, hw, sf)


def movk(rd: int, imm16: int, hw: int = 0, sf: int = 1) -> int:
    return _movewide(0b11, rd, imm16, hw, sf)


def mov_imm(rd: int, value: int, sf: int = 1) -> int:
    """MOV (wide immediate): MOVZ with an optional 16-bit shift."""
    for hw in range(4 if sf else 2):
        if value == (value & (0xFFFF << (16 * hw))):
            return movz(rd, value >> (16 * hw), hw, sf)
    raise ValueError(f"0x{value:x} not encodable as a single MOVZ")


# -- bitfield ---------------------------------------------------------------------


def ubfm(rd: int, rn: int, immr: int, imms: int, sf: int = 1) -> int:
    n = sf
    return (
        (sf << 31) | (0b10 << 29) | (0b100110 << 23) | (n << 22)
        | (immr << 16) | (imms << 10) | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def lsr_imm(rd: int, rn: int, shift: int, sf: int = 1) -> int:
    datasize = 64 if sf else 32
    return ubfm(rd, rn, shift, datasize - 1, sf)


def lsl_imm(rd: int, rn: int, shift: int, sf: int = 1) -> int:
    datasize = 64 if sf else 32
    return ubfm(rd, rn, (datasize - shift) % datasize, datasize - 1 - shift, sf)


def uxtb(rd: int, rn: int) -> int:
    return ubfm(rd, rn, 0, 7, sf=0)


# -- conditional select ----------------------------------------------------------------


def csel(rd: int, rn: int, rm: int, cond: str, sf: int = 1) -> int:
    return (
        (sf << 31) | (0b0011010100 << 21) | (_check_reg(rm) << 16)
        | (COND[cond] << 12) | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def csinc(rd: int, rn: int, rm: int, cond: str, sf: int = 1) -> int:
    return csel(rd, rn, rm, cond, sf) | (1 << 10)


def cset(rd: int, cond: str, sf: int = 1) -> int:
    inverted = COND[cond] ^ 1
    code = (
        (sf << 31) | (0b0011010100 << 21) | (XZR << 16)
        | (inverted << 12) | (XZR << 5) | _check_reg(rd) | (1 << 10)
    )
    return code


# -- loads / stores ---------------------------------------------------------------------


def _ldst_imm(size: int, opc: int, rt: int, rn: int, imm: int) -> int:
    scale = size
    if imm % (1 << scale):
        raise ValueError("unscaled immediate offset")
    imm12 = _check_range(imm >> scale, 12, "imm12")
    return (
        (size << 30) | (0b111001 << 24) | (opc << 22) | (imm12 << 10)
        | (_check_reg(rn) << 5) | _check_reg(rt)
    )


def strb_imm(rt, rn, imm=0):
    return _ldst_imm(0b00, 0b00, rt, rn, imm)


def ldrb_imm(rt, rn, imm=0):
    return _ldst_imm(0b00, 0b01, rt, rn, imm)


def str32_imm(rt, rn, imm=0):
    return _ldst_imm(0b10, 0b00, rt, rn, imm)


def ldr32_imm(rt, rn, imm=0):
    return _ldst_imm(0b10, 0b01, rt, rn, imm)


def str64_imm(rt, rn, imm=0):
    return _ldst_imm(0b11, 0b00, rt, rn, imm)


def ldr64_imm(rt, rn, imm=0):
    return _ldst_imm(0b11, 0b01, rt, rn, imm)


def _ldst_reg(size: int, opc: int, rt: int, rn: int, rm: int, option: int, s: int) -> int:
    return (
        (size << 30) | (0b111000 << 24) | (opc << 22) | (1 << 21)
        | (_check_reg(rm) << 16) | (option << 13) | (s << 12) | (0b10 << 10)
        | (_check_reg(rn) << 5) | _check_reg(rt)
    )


def ldrb_reg(rt, rn, rm):
    return _ldst_reg(0b00, 0b01, rt, rn, rm, 0b011, 0)


def strb_reg(rt, rn, rm):
    return _ldst_reg(0b00, 0b00, rt, rn, rm, 0b011, 0)


def ldr64_reg(rt, rn, rm, scaled=True):
    return _ldst_reg(0b11, 0b01, rt, rn, rm, 0b011, 1 if scaled else 0)


def str64_reg(rt, rn, rm, scaled=True):
    return _ldst_reg(0b11, 0b00, rt, rn, rm, 0b011, 1 if scaled else 0)


# -- load/store pairs and indexed addressing ----------------------------------------------


def _ldst_imm9(size: int, opc: int, rt: int, rn: int, imm9: int, mode: int) -> int:
    if not -256 <= imm9 <= 255:
        raise ValueError(f"imm9 out of range: {imm9}")
    return (
        (size << 30) | (0b111000 << 24) | (opc << 22)
        | ((imm9 & 0x1FF) << 12) | (mode << 10)
        | (_check_reg(rn) << 5) | _check_reg(rt)
    )


def str64_pre(rt, rn, imm):
    """str xt, [xn, #imm]!"""
    return _ldst_imm9(0b11, 0b00, rt, rn, imm, 0b11)


def str64_post(rt, rn, imm):
    """str xt, [xn], #imm"""
    return _ldst_imm9(0b11, 0b00, rt, rn, imm, 0b01)


def ldr64_pre(rt, rn, imm):
    return _ldst_imm9(0b11, 0b01, rt, rn, imm, 0b11)


def ldr64_post(rt, rn, imm):
    return _ldst_imm9(0b11, 0b01, rt, rn, imm, 0b01)


def stur64(rt, rn, imm):
    return _ldst_imm9(0b11, 0b00, rt, rn, imm, 0b00)


def ldur64(rt, rn, imm):
    return _ldst_imm9(0b11, 0b01, rt, rn, imm, 0b00)


def _ldst_pair(opc: int, load: int, rt: int, rt2: int, rn: int, imm: int, mode: int) -> int:
    scale = 3 if opc == 0b10 else 2
    if imm % (1 << scale):
        raise ValueError("pair offset must be scaled")
    imm7 = imm >> scale
    if not -64 <= imm7 <= 63:
        raise ValueError(f"pair offset out of range: {imm}")
    return (
        (opc << 30) | (0b101_0 << 26) | (mode << 23) | (load << 22)
        | ((imm7 & 0x7F) << 15) | (_check_reg(rt2) << 10)
        | (_check_reg(rn) << 5) | _check_reg(rt)
    )


def stp64(rt, rt2, rn, imm=0):
    """stp xt, xt2, [xn, #imm]"""
    return _ldst_pair(0b10, 0, rt, rt2, rn, imm, 0b010)


def ldp64(rt, rt2, rn, imm=0):
    return _ldst_pair(0b10, 1, rt, rt2, rn, imm, 0b010)


def stp64_pre(rt, rt2, rn, imm):
    """stp xt, xt2, [xn, #imm]!  (the standard prologue idiom)"""
    return _ldst_pair(0b10, 0, rt, rt2, rn, imm, 0b011)


def ldp64_post(rt, rt2, rn, imm):
    """ldp xt, xt2, [xn], #imm  (the standard epilogue idiom)"""
    return _ldst_pair(0b10, 1, rt, rt2, rn, imm, 0b001)


# -- conditional compare and division ------------------------------------------------------


def _condcmp(op_bit: int, rn: int, op2: int, nzcv: int, cond: str, imm: int, sf: int) -> int:
    return (
        (sf << 31) | (op_bit << 30) | (1 << 29) | (0b11010010 << 21)
        | (_check_range(op2, 5, "op2") << 16) | (COND[cond] << 12)
        | (imm << 11) | (_check_reg(rn) << 5) | _check_range(nzcv, 4, "nzcv")
    )


def ccmp_reg(rn: int, rm: int, nzcv: int, cond: str, sf: int = 1) -> int:
    return _condcmp(1, rn, _check_reg(rm), nzcv, cond, 0, sf)


def ccmp_imm(rn: int, imm5: int, nzcv: int, cond: str, sf: int = 1) -> int:
    return _condcmp(1, rn, imm5, nzcv, cond, 1, sf)


def ccmn_reg(rn: int, rm: int, nzcv: int, cond: str, sf: int = 1) -> int:
    return _condcmp(0, rn, _check_reg(rm), nzcv, cond, 0, sf)


def udiv(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return (
        (sf << 31) | (0b0011010110 << 21) | (_check_reg(rm) << 16)
        | (0b00001 << 11) | (0 << 10) | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def sdiv(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return udiv(rd, rn, rm, sf) | (1 << 10)


# -- PC-relative and multiply ------------------------------------------------------------


def adr(rd: int, offset: int) -> int:
    if not -(1 << 20) <= offset < (1 << 20):
        raise ValueError(f"adr offset out of range: {offset}")
    imm = offset & ((1 << 21) - 1)
    return (
        ((imm & 0b11) << 29) | (0b10000 << 24) | ((imm >> 2) << 5) | _check_reg(rd)
    )


def adrp(rd: int, offset_pages: int) -> int:
    return adr(rd, offset_pages) | (1 << 31)


def madd(rd, rn, rm, ra, sf=1):
    return (
        (sf << 31) | (0b0011011000 << 21) | (_check_reg(rm) << 16)
        | (_check_reg(ra) << 10) | (_check_reg(rn) << 5) | _check_reg(rd)
    )


def msub(rd, rn, rm, ra, sf=1):
    return madd(rd, rn, rm, ra, sf) | (1 << 15)


def mul(rd, rn, rm, sf=1):
    return madd(rd, rn, rm, XZR, sf)


# -- branches -------------------------------------------------------------------------------


def b(offset: int) -> int:
    return (0b000101 << 26) | _branch_offset(offset, 26)


def bl(offset: int) -> int:
    return (0b100101 << 26) | _branch_offset(offset, 26)


def b_cond(cond: str, offset: int) -> int:
    return (0b01010100 << 24) | (_branch_offset(offset, 19) << 5) | COND[cond]


def cbz(rt: int, offset: int, sf: int = 1) -> int:
    return (sf << 31) | (0b011010 << 25) | (_branch_offset(offset, 19) << 5) | _check_reg(rt)


def cbnz(rt: int, offset: int, sf: int = 1) -> int:
    return cbz(rt, offset, sf) | (1 << 24)


def tbz(rt: int, bit: int, offset: int) -> int:
    if not 0 <= bit < 64:
        raise ValueError(f"bit out of range: {bit}")
    b5, b40 = bit >> 5, bit & 0x1F
    return (
        (b5 << 31) | (0b011011 << 25) | (b40 << 19)
        | (_branch_offset(offset, 14) << 5) | _check_reg(rt)
    )


def tbnz(rt: int, bit: int, offset: int) -> int:
    return tbz(rt, bit, offset) | (1 << 24)


def br(rn: int) -> int:
    return (0b1101011_0000_11111_000000 << 10) | (_check_reg(rn) << 5)


def blr(rn: int) -> int:
    return (0b1101011_0001_11111_000000 << 10) | (_check_reg(rn) << 5)


def ret(rn: int = LR) -> int:
    return (0b1101011_0010_11111_000000 << 10) | (_check_reg(rn) << 5)


# -- system ------------------------------------------------------------------------------------


def nop() -> int:
    return 0xD503201F


def _sysreg_op(name: str) -> tuple[int, int, int, int, int]:
    try:
        return SYSREG_ENCODINGS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown system register {name}") from None


def msr(sysreg: str, rt: int) -> int:
    op0, op1, crn, crm, op2 = _sysreg_op(sysreg)
    return (
        (0b1101010100 << 22) | (0 << 21) | (1 << 20) | ((op0 - 2) << 19)
        | (op1 << 16) | (crn << 12) | (crm << 8) | (op2 << 5) | _check_reg(rt)
    )


def mrs(rt: int, sysreg: str) -> int:
    return msr(sysreg, rt) | (1 << 21)


def hvc(imm16: int = 0) -> int:
    return (0b11010100_000 << 21) | (_check_range(imm16, 16, "imm16") << 5) | 0b00010


def svc(imm16: int = 0) -> int:
    return (0b11010100_000 << 21) | (_check_range(imm16, 16, "imm16") << 5) | 0b00001


def eret() -> int:
    return 0xD69F03E0


def rbit(rd: int, rn: int, sf: int = 1) -> int:
    return (
        (sf << 31) | (0b101101011000000000000 << 10)
        | (_check_reg(rn) << 5) | _check_reg(rd)
    )


# -- program assembly -----------------------------------------------------------------------------


def assemble(opcodes: list[int]) -> bytes:
    """Pack opcodes into little-endian machine code."""
    out = bytearray()
    for op in opcodes:
        if not 0 <= op < (1 << 32):
            raise ValueError(f"opcode out of range: {op:#x}")
        out += op.to_bytes(4, "little")
    return bytes(out)
