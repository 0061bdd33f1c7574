"""Instruction encoders for the modelled OpenPOWER fixed-point subset.

Argument order follows the assembly operand order (destination first).
Every word is packed through the field tables of :mod:`repro.arch.ppc.spec`
(see :mod:`repro.arch.encoding`); these functions only turn operands into
field values, and an operand that does not fit raises ``ValueError``.
Python-keyword clashes follow the usual convention: ``and_``/``or_``,
and the record forms ``andi.``/``andis.`` are ``andi_``/``andis_``.
"""

from __future__ import annotations

from ..encoding import Encoding, aligned, signed
from .regs import SPR_CTR, SPR_FIELD, SPR_LR, SPR_XER
from .spec import ARMS

#: The packer over the spec's field tables.
ENCODING = Encoding(ARMS)


def reg(r) -> int:
    """A GPR operand: an index 0..31 or a name like ``"r5"``."""
    if isinstance(r, str):
        if not r.startswith("r"):
            raise ValueError(f"bad register {r!r}")
        r = int(r[1:])
    if not 0 <= r <= 31:
        raise ValueError(f"register index {r} out of range")
    return r


def crf(bf) -> int:
    """A CR-field operand: an index 0..7 or a name like ``"cr3"``."""
    if isinstance(bf, str):
        if not bf.startswith("cr"):
            raise ValueError(f"bad CR field {bf!r}")
        bf = int(bf[2:])
    if not 0 <= bf <= 7:
        raise ValueError(f"CR field {bf} out of range")
    return bf


# -- D-form arithmetic and logical immediates --------------------------------


def addi(rt, ra, si: int) -> int:
    return ENCODING.pack("addi", rt=reg(rt), ra=reg(ra), si=signed(si, 16, "SI"))


def addis(rt, ra, si: int) -> int:
    return ENCODING.pack("addis", rt=reg(rt), ra=reg(ra), si=signed(si, 16, "SI"))


def li(rt, si: int) -> int:
    return addi(rt, 0, si)


def lis(rt, si: int) -> int:
    return addis(rt, 0, si)


def _logic_imm(arm: str, ra, rs, ui: int) -> int:
    # Assembly order is RA, RS; the field table places RS at [25:21].
    return ENCODING.pack(arm, rs=reg(rs), ra=reg(ra), ui=ui)


def ori(ra, rs, ui: int) -> int:
    return _logic_imm("ori", ra, rs, ui)


def oris(ra, rs, ui: int) -> int:
    return _logic_imm("oris", ra, rs, ui)


def xori(ra, rs, ui: int) -> int:
    return _logic_imm("xori", ra, rs, ui)


def xoris(ra, rs, ui: int) -> int:
    return _logic_imm("xoris", ra, rs, ui)


def andi_(ra, rs, ui: int) -> int:
    return _logic_imm("andi", ra, rs, ui)


def andis_(ra, rs, ui: int) -> int:
    return _logic_imm("andis", ra, rs, ui)


def nop() -> int:
    return ori(0, 0, 0)


# -- compares ----------------------------------------------------------------


def cmpdi(bf, ra, si: int) -> int:
    return ENCODING.pack("cmpi", bf=crf(bf), l=1, ra=reg(ra), si=signed(si, 16, "SI"))


def cmpwi(bf, ra, si: int) -> int:
    return ENCODING.pack("cmpi", bf=crf(bf), l=0, ra=reg(ra), si=signed(si, 16, "SI"))


def cmpldi(bf, ra, ui: int) -> int:
    return ENCODING.pack("cmpli", bf=crf(bf), l=1, ra=reg(ra), ui=ui)


def cmplwi(bf, ra, ui: int) -> int:
    return ENCODING.pack("cmpli", bf=crf(bf), l=0, ra=reg(ra), ui=ui)


def cmpd(bf, ra, rb) -> int:
    return ENCODING.pack("cmp", bf=crf(bf), l=1, ra=reg(ra), rb=reg(rb))


def cmpw(bf, ra, rb) -> int:
    return ENCODING.pack("cmp", bf=crf(bf), l=0, ra=reg(ra), rb=reg(rb))


def cmpld(bf, ra, rb) -> int:
    return ENCODING.pack("cmpl", bf=crf(bf), l=1, ra=reg(ra), rb=reg(rb))


def cmplw(bf, ra, rb) -> int:
    return ENCODING.pack("cmpl", bf=crf(bf), l=0, ra=reg(ra), rb=reg(rb))


# -- loads and stores --------------------------------------------------------


def _words(offset: int, bits: int, what: str) -> int:
    """A byte offset or displacement as its ``bits - 2``-bit word field."""
    aligned(offset, 2, what)
    return signed(offset, bits, what) >> 2


def lwz(rt, ra, d: int) -> int:
    return ENCODING.pack("lwz", rt=reg(rt), ra=reg(ra), d=signed(d, 16, "D"))


def lbz(rt, ra, d: int) -> int:
    return ENCODING.pack("lbz", rt=reg(rt), ra=reg(ra), d=signed(d, 16, "D"))


def stw(rs, ra, d: int) -> int:
    return ENCODING.pack("stw", rs=reg(rs), ra=reg(ra), d=signed(d, 16, "D"))


def stb(rs, ra, d: int) -> int:
    return ENCODING.pack("stb", rs=reg(rs), ra=reg(ra), d=signed(d, 16, "D"))


def ld(rt, ra, ds: int) -> int:
    return ENCODING.pack("ld", rt=reg(rt), ra=reg(ra), ds=_words(ds, 16, "DS"))


def std(rs, ra, ds: int) -> int:
    return ENCODING.pack("std", rs=reg(rs), ra=reg(ra), ds=_words(ds, 16, "DS"))


# -- branches ----------------------------------------------------------------


def b(offset: int, lk: int = 0) -> int:
    return ENCODING.pack("b", li=_words(offset, 26, "LI"), lk=lk)


def bl(offset: int) -> int:
    return b(offset, lk=1)


def bc(bo: int, bi: int, bd: int, lk: int = 0) -> int:
    return ENCODING.pack("bc", bo=bo, bi=bi, bd=_words(bd, 16, "BD"), lk=lk)


def bcl(bo: int, bi: int, bd: int) -> int:
    return bc(bo, bi, bd, lk=1)


def bdnz(bd: int, lk: int = 0) -> int:
    return bc(16, 0, bd, lk)


#: Extended conditional branches: condition -> (BO, CR bit in the field).
#: BO=12 branches when the bit is set, BO=4 when it is clear.
BRANCH_CONDS = {"lt": (12, 0), "gt": (12, 1), "eq": (12, 2), "so": (12, 3),
                "ge": (4, 0), "le": (4, 1), "ne": (4, 2), "ns": (4, 3)}


def bcond(cond: str, bf, bd: int, lk: int = 0) -> int:
    """``b<cond>[l] crN, bd``: a ``bc`` testing one bit of CR field ``bf``."""
    bo, bit = BRANCH_CONDS[cond]
    return bc(bo, 4 * crf(bf) + bit, bd, lk)


def blt(bf, bd: int) -> int:
    return bcond("lt", bf, bd)


def bgt(bf, bd: int) -> int:
    return bcond("gt", bf, bd)


def beq(bf, bd: int) -> int:
    return bcond("eq", bf, bd)


def bge(bf, bd: int) -> int:
    return bcond("ge", bf, bd)


def ble(bf, bd: int) -> int:
    return bcond("le", bf, bd)


def bne(bf, bd: int) -> int:
    return bcond("ne", bf, bd)


def bclr(bo: int, bi: int, lk: int = 0) -> int:
    return ENCODING.pack("bclr", bo=bo, bi=bi, lk=lk)


def bcctr(bo: int, bi: int, lk: int = 0) -> int:
    """The claim fixes BO[2]: bcctr must not decrement CTR."""
    return ENCODING.pack("bcctr", bo=bo, bi=bi, lk=lk)


def blr() -> int:
    return bclr(20, 0)


def blrl() -> int:
    return bclr(20, 0, lk=1)


def bctr() -> int:
    return bcctr(20, 0)


def bctrl() -> int:
    return bcctr(20, 0, lk=1)


# -- major 31 (X / XO forms) -------------------------------------------------


def add(rt, ra, rb) -> int:
    return ENCODING.pack("add", rt=reg(rt), ra=reg(ra), rb=reg(rb))


def subf(rt, ra, rb) -> int:
    return ENCODING.pack("subf", rt=reg(rt), ra=reg(ra), rb=reg(rb))


def _x_logic(arm: str, ra, rs, rb) -> int:
    # Assembly order is RA, RS, RB; the field table places RS at [25:21].
    return ENCODING.pack(arm, rs=reg(rs), ra=reg(ra), rb=reg(rb))


def and_(ra, rs, rb) -> int:
    return _x_logic("and", ra, rs, rb)


def or_(ra, rs, rb) -> int:
    return _x_logic("or", ra, rs, rb)


def xor(ra, rs, rb) -> int:
    return _x_logic("xor", ra, rs, rb)


def mr(ra, rs) -> int:
    return or_(ra, rs, rs)


def mtctr(rs) -> int:
    return ENCODING.pack("mtspr", rs=reg(rs), spr=SPR_FIELD[SPR_CTR])


def mtlr(rs) -> int:
    return ENCODING.pack("mtspr", rs=reg(rs), spr=SPR_FIELD[SPR_LR])


def mtxer(rs) -> int:
    return ENCODING.pack("mtspr", rs=reg(rs), spr=SPR_FIELD[SPR_XER])


def mfctr(rt) -> int:
    return ENCODING.pack("mfspr", rt=reg(rt), spr=SPR_FIELD[SPR_CTR])


def mflr(rt) -> int:
    return ENCODING.pack("mfspr", rt=reg(rt), spr=SPR_FIELD[SPR_LR])


def mfxer(rt) -> int:
    return ENCODING.pack("mfspr", rt=reg(rt), spr=SPR_FIELD[SPR_XER])


def assemble(opcodes: list[int]) -> bytes:
    """Pack opcodes as little-endian instruction memory (ppc64le)."""
    return b"".join(op.to_bytes(4, "little") for op in opcodes)
