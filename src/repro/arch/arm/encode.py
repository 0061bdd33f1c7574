"""A64 instruction encoder (assembler).

Produces the 32-bit opcodes the case studies verify.  Register operands are
integers 0..31 (31 = XZR/WZR or SP depending on context, as in the real
encoding).  Every word is packed through the field tables of
:mod:`repro.arch.arm.spec` (see :mod:`repro.arch.encoding`); these functions
only turn operands into field values, and an operand that does not fit
raises ``ValueError``.  :func:`assemble` packs a sequence into little-endian
bytes.

The per-arm builders (``addsub_imm``, ``logical_reg``, ``ldst_imm9``, ...)
take every field as an operand; the mnemonic helpers (``add_imm``,
``str64_pre``, ...) fix some of them.
"""

from __future__ import annotations

from functools import lru_cache

from ..encoding import Encoding, aligned, bits, signed
from .regs import SYSREG_ENCODINGS
from .spec import ARMS

#: The packer over the spec's field tables.
ENCODING = Encoding(ARMS)

XZR = 31
SP = 31
LR = 30

COND = {
    "eq": 0, "ne": 1, "cs": 2, "hs": 2, "cc": 3, "lo": 3, "mi": 4, "pl": 5,
    "vs": 6, "vc": 7, "hi": 8, "ls": 9, "ge": 10, "lt": 11, "gt": 12,
    "le": 13, "al": 14, "nv": 15,
}


def _lookup(table: dict, key: str, what: str):
    try:
        return table[key]
    except KeyError:
        raise ValueError(f"unknown {what} {key!r}") from None


def _branch_offset(offset_bytes: int, width: int) -> int:
    return signed(aligned(offset_bytes, 2, "branch offset"), width, "branch offset")


# -- arithmetic --------------------------------------------------------------


def addsub_imm(rd: int, rn: int, imm12: int, *, sub: int = 0, s: int = 0,
               sf: int = 1, shift12: bool = False) -> int:
    return ENCODING.pack(
        "addsub_imm", sf=sf, op=sub, s=s, sh=int(shift12), imm12=imm12,
        rn=rn, rd=rd,
    )


def add_imm(rd: int, rn: int, imm12: int, sf: int = 1, shift12: bool = False) -> int:
    return addsub_imm(rd, rn, imm12, sf=sf, shift12=shift12)


def sub_imm(rd: int, rn: int, imm12: int, sf: int = 1) -> int:
    return addsub_imm(rd, rn, imm12, sub=1, sf=sf)


def adds_imm(rd: int, rn: int, imm12: int, sf: int = 1) -> int:
    return addsub_imm(rd, rn, imm12, s=1, sf=sf)


def subs_imm(rd: int, rn: int, imm12: int, sf: int = 1) -> int:
    return addsub_imm(rd, rn, imm12, sub=1, s=1, sf=sf)


def cmp_imm(rn: int, imm12: int, sf: int = 1) -> int:
    return subs_imm(XZR, rn, imm12, sf)


def addsub_reg(rd: int, rn: int, rm: int, *, sub: int = 0, s: int = 0,
               sf: int = 1, shift: int = 0, amount: int = 0) -> int:
    if shift == 0b11:
        raise ValueError("shift type ror is reserved for add/sub")
    return ENCODING.pack(
        "addsub_reg", sf=sf, op=sub, s=s, shift=shift, rm=rm, imm6=amount,
        rn=rn, rd=rd,
    )


def add_reg(rd: int, rn: int, rm: int, sf: int = 1, shift: int = 0, amount: int = 0) -> int:
    return addsub_reg(rd, rn, rm, sf=sf, shift=shift, amount=amount)


def sub_reg(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return addsub_reg(rd, rn, rm, sub=1, sf=sf)


def subs_reg(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return addsub_reg(rd, rn, rm, sub=1, s=1, sf=sf)


def adds_reg(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return addsub_reg(rd, rn, rm, s=1, sf=sf)


def cmp_reg(rn: int, rm: int, sf: int = 1) -> int:
    return subs_reg(XZR, rn, rm, sf)


# -- logical -------------------------------------------------------------------

#: Logical mnemonic -> (opc, N); N inverts the register form's second operand.
LOGICAL = {
    "and": (0b00, 0), "bic": (0b00, 1), "orr": (0b01, 0), "orn": (0b01, 1),
    "eor": (0b10, 0), "eon": (0b10, 1), "ands": (0b11, 0), "bics": (0b11, 1),
}


def logical_reg(name: str, rd: int, rn: int, rm: int, sf: int = 1,
                shift: int = 0, amount: int = 0) -> int:
    opc, invert = _lookup(LOGICAL, name, "logical op")
    return ENCODING.pack(
        "logical_reg", sf=sf, opc=opc, shift=shift, n=invert, rm=rm,
        imm6=amount, rn=rn, rd=rd,
    )


def and_reg(rd, rn, rm, sf=1):
    return logical_reg("and", rd, rn, rm, sf)


def orr_reg(rd, rn, rm, sf=1, amount=0, shift=0):
    return logical_reg("orr", rd, rn, rm, sf, shift, amount)


def eor_reg(rd, rn, rm, sf=1):
    return logical_reg("eor", rd, rn, rm, sf)


def ands_reg(rd, rn, rm, sf=1):
    return logical_reg("ands", rd, rn, rm, sf)


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


def logical_imm(name: str, rd: int, rn: int, value: int, sf: int = 1) -> int:
    opc, invert = _lookup(LOGICAL, name, "logical op")
    if invert:
        raise ValueError(f"{name} has no immediate form")
    immn, immr, imms = encode_bitmask_immediate(value, 64 if sf else 32)
    return ENCODING.pack(
        "logical_imm", sf=sf, opc=opc, n=immn, immr=immr, imms=imms, rn=rn,
        rd=rd,
    )


def and_imm(rd: int, rn: int, value: int, sf: int = 1) -> int:
    return logical_imm("and", rd, rn, value, sf)


def ands_imm(rd: int, rn: int, value: int, sf: int = 1) -> int:
    return logical_imm("ands", rd, rn, value, sf)


def tst_imm(rn: int, value: int, sf: int = 1) -> int:
    return ands_imm(XZR, rn, value, sf)


# -- move wide --------------------------------------------------------------------


def _movewide(opc: int, rd: int, imm16: int, hw: int, sf: int) -> int:
    return ENCODING.pack("movewide", sf=sf, opc=opc, hw=hw, imm16=imm16, rd=rd)


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


def _bitfield(opc: int, rd: int, rn: int, immr: int, imms: int, sf: int) -> int:
    datasize = 64 if sf else 32
    if not (0 <= immr < datasize and 0 <= imms < datasize):
        raise ValueError(f"bitfield #{immr}, #{imms} out of range for {datasize} bits")
    return ENCODING.pack(
        "bitfield", sf=sf, opc=opc, n=sf, immr=immr, imms=imms, rn=rn, rd=rd,
    )


def ubfm(rd: int, rn: int, immr: int, imms: int, sf: int = 1) -> int:
    return _bitfield(0b10, rd, rn, immr, imms, sf)


def sbfm(rd: int, rn: int, immr: int, imms: int, sf: int = 1) -> int:
    return _bitfield(0b00, rd, rn, immr, imms, sf)


def lsr_imm(rd: int, rn: int, shift: int, sf: int = 1) -> int:
    datasize = 64 if sf else 32
    return ubfm(rd, rn, shift, datasize - 1, sf)


def asr_imm(rd: int, rn: int, shift: int, sf: int = 1) -> int:
    datasize = 64 if sf else 32
    return sbfm(rd, rn, shift, datasize - 1, sf)


def lsl_imm(rd: int, rn: int, shift: int, sf: int = 1) -> int:
    datasize = 64 if sf else 32
    return ubfm(rd, rn, (datasize - shift) % datasize, datasize - 1 - shift, sf)


def uxtb(rd: int, rn: int) -> int:
    return ubfm(rd, rn, 0, 7, sf=0)


# -- conditional select ----------------------------------------------------------------

#: Conditional-select mnemonic -> (op, o2).
CONDSEL = {"csel": (0, 0), "csinc": (0, 1), "csinv": (1, 0), "csneg": (1, 1)}


def _condsel(name: str, rd: int, rn: int, rm: int, cond: int, sf: int) -> int:
    neg, o2 = _lookup(CONDSEL, name, "conditional select")
    return ENCODING.pack(
        "csel", sf=sf, neg=neg, rm=rm, cond=cond, o2=o2, rn=rn, rd=rd,
    )


def condsel(name: str, rd: int, rn: int, rm: int, cond: str, sf: int = 1) -> int:
    return _condsel(name, rd, rn, rm, _lookup(COND, cond, "condition"), sf)


def csel(rd: int, rn: int, rm: int, cond: str, sf: int = 1) -> int:
    return condsel("csel", rd, rn, rm, cond, sf)


def csinc(rd: int, rn: int, rm: int, cond: str, sf: int = 1) -> int:
    return condsel("csinc", rd, rn, rm, cond, sf)


def cset(rd: int, cond: str, sf: int = 1) -> int:
    inverted = _lookup(COND, cond, "condition") ^ 1
    return _condsel("csinc", rd, XZR, XZR, inverted, sf)


# -- loads / stores ---------------------------------------------------------------------

#: Load/store mnemonic -> (size, opc); ``ldr``/``str`` take the size from
#: the register width instead.
_LDST = {
    "strb": (0b00, 0b00), "ldrb": (0b00, 0b01), "ldrsb": (0b00, 0b10),
    "strh": (0b01, 0b00), "ldrh": (0b01, 0b01), "ldrsh": (0b01, 0b10),
    "ldrsw": (0b10, 0b10),
}
#: Register-offset extend -> option.
_EXTENDS = {"lsl": 0b011, "uxtw": 0b010, "sxtw": 0b110}
#: Single-register imm9 addressing mode -> mode bits.
_IMM9_MODES = {"unscaled": 0b00, "post": 0b01, "pre": 0b11}


def _size_opc(name: str, sf: int) -> tuple[int, int]:
    if name in ("str", "ldr"):
        return (0b11 if sf else 0b10), (0b00 if name == "str" else 0b01)
    return _lookup(_LDST, name, "load/store")


def ldst_imm(name: str, rt: int, rn: int, offset: int = 0, sf: int = 1) -> int:
    """``name rt, [rn, #offset]``: the scaled unsigned-offset form."""
    size, opc = _size_opc(name, sf)
    return ENCODING.pack(
        "ldst_imm", size=size, opc=opc,
        imm12=aligned(offset, size, "unscaled immediate offset"), rn=rn, rt=rt,
    )


def ldst_reg(name: str, rt: int, rn: int, rm: int, extend: str = "lsl",
             amount: int | None = None, sf: int = 1) -> int:
    """``name rt, [rn, rm{, extend {#amount}}]``; the amount, when given,
    must be the access size's log2."""
    size, opc = _size_opc(name, sf)
    if amount not in (None, size):
        raise ValueError(f"{name} register offset shifts by #{size}, not #{amount}")
    return ENCODING.pack(
        "ldst_reg", size=size, opc=opc, rm=rm,
        option=_lookup(_EXTENDS, extend, "extend"), s=int(amount is not None),
        rn=rn, rt=rt,
    )


def ldst_imm9(name: str, rt: int, rn: int, imm9: int, mode: str = "unscaled",
              sf: int = 1) -> int:
    """The signed 9-bit forms: unscaled (``ldur``), post- or pre-index."""
    size, opc = _size_opc(name, sf)
    return ENCODING.pack(
        "ldst_imm9", size=size, opc=opc, imm9=signed(imm9, 9, "imm9"),
        mode=_lookup(_IMM9_MODES, mode, "addressing mode"), rn=rn, rt=rt,
    )


def strb_imm(rt, rn, imm=0):
    return ldst_imm("strb", rt, rn, imm)


def ldrb_imm(rt, rn, imm=0):
    return ldst_imm("ldrb", rt, rn, imm)


def str32_imm(rt, rn, imm=0):
    return ldst_imm("str", rt, rn, imm, sf=0)


def ldr32_imm(rt, rn, imm=0):
    return ldst_imm("ldr", rt, rn, imm, sf=0)


def str64_imm(rt, rn, imm=0):
    return ldst_imm("str", rt, rn, imm)


def ldr64_imm(rt, rn, imm=0):
    return ldst_imm("ldr", rt, rn, imm)


def ldrb_reg(rt, rn, rm):
    return ldst_reg("ldrb", rt, rn, rm)


def strb_reg(rt, rn, rm):
    return ldst_reg("strb", rt, rn, rm)


def ldr64_reg(rt, rn, rm, scaled=True):
    return ldst_reg("ldr", rt, rn, rm, amount=3 if scaled else None)


def str64_reg(rt, rn, rm, scaled=True):
    return ldst_reg("str", rt, rn, rm, amount=3 if scaled else None)


def str64_pre(rt, rn, imm):
    """str xt, [xn, #imm]!"""
    return ldst_imm9("str", rt, rn, imm, "pre")


def str64_post(rt, rn, imm):
    """str xt, [xn], #imm"""
    return ldst_imm9("str", rt, rn, imm, "post")


def ldr64_pre(rt, rn, imm):
    return ldst_imm9("ldr", rt, rn, imm, "pre")


def ldr64_post(rt, rn, imm):
    return ldst_imm9("ldr", rt, rn, imm, "post")


def stur64(rt, rn, imm):
    return ldst_imm9("str", rt, rn, imm)


def ldur64(rt, rn, imm):
    return ldst_imm9("ldr", rt, rn, imm)


# -- load/store pairs ---------------------------------------------------------------------

#: Pair addressing mode -> mode bits.
_PAIR_MODES = {"post": 0b001, "offset": 0b010, "pre": 0b011}


def ldst_pair(load: int, rt: int, rt2: int, rn: int, imm: int = 0,
              mode: str = "offset", sf: int = 1) -> int:
    imm7 = aligned(imm, 3 if sf else 2, "pair offset")
    return ENCODING.pack(
        "ldst_pair", opc=0b10 if sf else 0b00,
        mode=_lookup(_PAIR_MODES, mode, "addressing mode"), l=load,
        imm7=signed(imm7, 7, "pair offset"), rt2=rt2, rn=rn, rt=rt,
    )


def stp64(rt, rt2, rn, imm=0):
    """stp xt, xt2, [xn, #imm]"""
    return ldst_pair(0, rt, rt2, rn, imm)


def ldp64(rt, rt2, rn, imm=0):
    return ldst_pair(1, rt, rt2, rn, imm)


def stp64_pre(rt, rt2, rn, imm):
    """stp xt, xt2, [xn, #imm]!  (the standard prologue idiom)"""
    return ldst_pair(0, rt, rt2, rn, imm, "pre")


def ldp64_post(rt, rt2, rn, imm):
    """ldp xt, xt2, [xn], #imm  (the standard epilogue idiom)"""
    return ldst_pair(1, rt, rt2, rn, imm, "post")


# -- conditional compare and division ------------------------------------------------------


def condcmp(name: str, rn: int, op2: int, nzcv: int, cond: str, sf: int = 1,
            imm: bool = False) -> int:
    """``ccmp``/``ccmn``; ``op2`` is a register, or a 5-bit immediate when
    ``imm`` is set."""
    return ENCODING.pack(
        "ccmp", sf=sf, op=_lookup({"ccmn": 0, "ccmp": 1}, name, "compare"),
        rm_or_imm=op2, cond=_lookup(COND, cond, "condition"), e=int(imm),
        rn=rn, nzcv=nzcv,
    )


def ccmp_reg(rn: int, rm: int, nzcv: int, cond: str, sf: int = 1) -> int:
    return condcmp("ccmp", rn, rm, nzcv, cond, sf)


def ccmp_imm(rn: int, imm5: int, nzcv: int, cond: str, sf: int = 1) -> int:
    return condcmp("ccmp", rn, imm5, nzcv, cond, sf, imm=True)


def ccmn_reg(rn: int, rm: int, nzcv: int, cond: str, sf: int = 1) -> int:
    return condcmp("ccmn", rn, rm, nzcv, cond, sf)


def udiv(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return ENCODING.pack("div", sf=sf, rm=rm, o1=0, rn=rn, rd=rd)


def sdiv(rd: int, rn: int, rm: int, sf: int = 1) -> int:
    return ENCODING.pack("div", sf=sf, rm=rm, o1=1, rn=rn, rd=rd)


# -- PC-relative and multiply ------------------------------------------------------------


def _adr(page: int, rd: int, offset: int) -> int:
    imm = signed(offset, 21, "adr offset")
    return ENCODING.pack(
        "adr", page=page, immlo=bits(imm, 1, 0), immhi=bits(imm, 20, 2), rd=rd,
    )


def adr(rd: int, offset: int) -> int:
    return _adr(0, rd, offset)


def adrp(rd: int, offset_pages: int) -> int:
    return _adr(1, rd, offset_pages)


def madd(rd, rn, rm, ra, sf=1):
    return ENCODING.pack("madd", sf=sf, rm=rm, o0=0, ra=ra, rn=rn, rd=rd)


def msub(rd, rn, rm, ra, sf=1):
    return ENCODING.pack("madd", sf=sf, rm=rm, o0=1, ra=ra, rn=rn, rd=rd)


def mul(rd, rn, rm, sf=1):
    return madd(rd, rn, rm, XZR, sf)


# -- branches -------------------------------------------------------------------------------


def b(offset: int) -> int:
    return ENCODING.pack("b_bl", op=0, imm26=_branch_offset(offset, 26))


def bl(offset: int) -> int:
    return ENCODING.pack("b_bl", op=1, imm26=_branch_offset(offset, 26))


def b_cond(cond: str, offset: int) -> int:
    return ENCODING.pack(
        "bcond", imm19=_branch_offset(offset, 19),
        cond=_lookup(COND, cond, "condition"),
    )


def cbz(rt: int, offset: int, sf: int = 1) -> int:
    return ENCODING.pack("cbz", sf=sf, op=0, imm19=_branch_offset(offset, 19), rt=rt)


def cbnz(rt: int, offset: int, sf: int = 1) -> int:
    return ENCODING.pack("cbz", sf=sf, op=1, imm19=_branch_offset(offset, 19), rt=rt)


def _tbz(op: int, rt: int, bit: int, offset: int) -> int:
    if not 0 <= bit < 64:
        raise ValueError(f"bit out of range: {bit}")
    return ENCODING.pack(
        "tbz", b5=bits(bit, 5, 5), op=op, b40=bits(bit, 4, 0),
        imm14=_branch_offset(offset, 14), rt=rt,
    )


def tbz(rt: int, bit: int, offset: int) -> int:
    return _tbz(0, rt, bit, offset)


def tbnz(rt: int, bit: int, offset: int) -> int:
    return _tbz(1, rt, bit, offset)


def br(rn: int) -> int:
    return ENCODING.pack("br_blr_ret", opc=0b0000, rn=rn)


def blr(rn: int) -> int:
    return ENCODING.pack("br_blr_ret", opc=0b0001, rn=rn)


def ret(rn: int = LR) -> int:
    return ENCODING.pack("br_blr_ret", opc=0b0010, rn=rn)


def eret() -> int:
    return ENCODING.pack("br_blr_ret", opc=0b0100, rn=31)


# -- system ------------------------------------------------------------------------------------


def hint(imm: int) -> int:
    return ENCODING.pack("hint", crm_op2=imm)


def nop() -> int:
    return hint(0)


def _sysreg(l: int, sysreg, rt: int) -> int:
    """``sysreg`` is a register name or its (op0, op1, CRn, CRm, op2)."""
    if isinstance(sysreg, str):
        sysreg = _lookup(SYSREG_ENCODINGS, sysreg.upper(), "system register")
    op0, op1, crn, crm, op2 = sysreg
    return ENCODING.pack(
        "sysreg", l=l, o0=op0 - 2, op1=op1, crn=crn, crm=crm, op2=op2, rt=rt,
    )


def msr(sysreg, rt: int) -> int:
    return _sysreg(0, sysreg, rt)


def mrs(rt: int, sysreg) -> int:
    return _sysreg(1, sysreg, rt)


def hvc(imm16: int = 0) -> int:
    return ENCODING.pack("hvc", imm16=imm16, low=0b00010)


def svc(imm16: int = 0) -> int:
    return ENCODING.pack("hvc", imm16=imm16, low=0b00001)


def rbit(rd: int, rn: int, sf: int = 1) -> int:
    return ENCODING.pack("rbit", sf=sf, rn=rn, rd=rd)


# -- program assembly -----------------------------------------------------------------------------


def assemble(opcodes: list[int]) -> bytes:
    """Pack opcodes into little-endian machine code."""
    out = bytearray()
    for op in opcodes:
        if not 0 <= op < (1 << 32):
            raise ValueError(f"opcode out of range: {op:#x}")
        out += op.to_bytes(4, "little")
    return bytes(out)
