"""Mini-Sail model of the OpenPOWER fixed-point subset (ppc64le).

Mirrors the structure of the other mini-Sail models: a decoder over the
primary-opcode field (bits [31:26]) dispatching to per-class execute
functions.  Supports the fixed-point pieces the case studies exercise:
D-form arithmetic and logical immediates (``addi``/``addis``,
``ori``/``xori``/``andi.`` and their shifted forms), XO/X-form register
ALU ops (``add``/``subf``/``and``/``or``/``xor``), the four compare
instructions writing CR fields, byte/word/doubleword loads and stores,
branches (``b``/``bc``/``bclr``/``bcctr`` with full BO/BI generality and
CTR/LR semantics), and ``mtspr``/``mfspr`` for CTR, LR, and XER.

We model the little-endian (ppc64le) variant: instruction fetch and data
accesses are little-endian, matching the shared machine interface.  Bit
positions use LSB-0 numbering (see :mod:`repro.arch.ppc.regs`).

Everything is generic in the machine interface, so the same Isla executor
and Islaris logic work unchanged — the point of §2.7 of the paper.
"""

from __future__ import annotations

from ...itl.events import Reg
from ...sail import primitives as P
from ...sail.iface import MachineInterface, sail_fn
from ...sail.model import IsaModel
from ...sail.registers import RegisterFile
from ...smt import builder as B
from ...smt.terms import Term
from .regs import (
    CTR,
    FIELD_SPR,
    LR,
    PC,
    SPR_REGISTERS,
    XER,
    XER_SO_BIT,
    cr_field,
    declare_ppc_registers,
    gpr,
)


def fld(opcode: Term, hi: int, lo: int) -> Term:
    return B.extract(hi, lo, opcode)


def fld_int(opcode: Term, hi: int, lo: int) -> int:
    t = fld(opcode, hi, lo)
    if not t.is_value():
        raise ValueError(f"symbolic decode field [{hi}:{lo}]")
    return t.value


@sail_fn
def rGPR(m: MachineInterface, n: int) -> Term:
    """Read general-purpose register (r0 is a real register here)."""
    return m.read_reg(gpr(n))


@sail_fn
def wGPR(m: MachineInterface, n: int, value: Term) -> None:
    m.write_reg(gpr(n), value)


def rA_or_zero(m: MachineInterface, n: int) -> Term:
    """The ``(RA|0)`` addressing operand: RA=0 means a literal zero."""
    if n == 0:
        return P.zeros(64)
    return rGPR(m, n)


def advance_pc(m: MachineInterface, pc: Term | None = None) -> None:
    if pc is None:
        pc = m.read_reg(PC)
    m.write_reg(PC, B.bvadd(pc, B.bv(4, 64)))


# -- immediates (all little-endian-word bit positions, LSB-0) ---------------


def _imm_d(opcode: Term) -> Term:
    return P.sign_extend(fld(opcode, 15, 0), 64)


def _imm_d_shifted(opcode: Term) -> Term:
    return P.sign_extend(B.concat(fld(opcode, 15, 0), P.zeros(16)), 64)


def _imm_ui(opcode: Term) -> Term:
    return P.zero_extend(fld(opcode, 15, 0), 64)


def _imm_ui_shifted(opcode: Term) -> Term:
    return P.zero_extend(B.concat(fld(opcode, 15, 0), P.zeros(16)), 64)


def _imm_ds(opcode: Term) -> Term:
    return P.sign_extend(B.concat(fld(opcode, 15, 2), P.zeros(2)), 64)


def _imm_li(opcode: Term) -> Term:
    return P.sign_extend(B.concat(fld(opcode, 25, 2), P.zeros(2)), 64)


# -- condition-register plumbing --------------------------------------------


def _so_bit(m: MachineInterface) -> Term:
    return B.extract(XER_SO_BIT, XER_SO_BIT, m.read_reg(XER))


def _write_cmp_cr(m: MachineInterface, bf: int, lt: Term, gt: Term, eq: Term) -> None:
    """Write a 4-bit CR field as LT || GT || EQ || XER.SO (MSB-first)."""
    value = B.concat_many(
        P.bool_to_bit(lt), P.bool_to_bit(gt), P.bool_to_bit(eq), _so_bit(m)
    )
    m.write_reg(cr_field(bf), m.define(f"cr{bf}", value))


def _record_cr0(m: MachineInterface, result: Term) -> None:
    """Record forms (``andi.``/``andis.``): CR0 from a signed compare of
    the 64-bit result against zero."""
    lt = B.bvslt(result, B.bv(0, 64))
    eq = B.eq(result, B.bv(0, 64))
    gt = B.and_(B.not_(lt), B.not_(eq))
    _write_cmp_cr(m, 0, lt, gt, eq)


# ---------------------------------------------------------------------------
# Instruction classes.
# ---------------------------------------------------------------------------


@sail_fn
def execute_addi(m, opcode: Term, shifted: bool = False) -> None:
    rt = fld_int(opcode, 25, 21)
    ra = fld_int(opcode, 20, 16)
    imm = _imm_d_shifted(opcode) if shifted else _imm_d(opcode)
    if ra == 0:
        result = imm  # (RA|0): li / lis forms
    else:
        result = B.bvadd(rGPR(m, ra), imm)
    wGPR(m, rt, m.define("addres", result))
    advance_pc(m)


#: major opcode -> the logical-immediate operation (shifted majors are odd).
_LOGIC_IMM_OPS = {
    24: B.bvor, 25: B.bvor, 26: B.bvxor, 27: B.bvxor, 28: B.bvand, 29: B.bvand,
}


@sail_fn
def execute_logic_imm(m, opcode: Term) -> None:
    major = fld_int(opcode, 31, 26)
    rs = fld_int(opcode, 25, 21)
    ra = fld_int(opcode, 20, 16)
    imm = _imm_ui_shifted(opcode) if major in (25, 27, 29) else _imm_ui(opcode)
    result = m.define("logres", _LOGIC_IMM_OPS[major](rGPR(m, rs), imm))
    wGPR(m, ra, result)
    if major in (28, 29):  # andi. / andis. are record forms
        _record_cr0(m, result)
    advance_pc(m)


def _compare(m, opcode: Term, b_of, unsigned: bool) -> None:
    """Shared cmp/cmpi body: ``b_of(width)`` supplies the second operand."""
    bf = fld_int(opcode, 25, 23)
    if fld_int(opcode, 22, 22):
        m.unreachable("reserved compare bit 22")
        return
    ell = fld_int(opcode, 21, 21)
    ra = fld_int(opcode, 20, 16)
    if ell:  # L=1: full 64-bit compare
        a, b = rGPR(m, ra), b_of(64)
    else:  # L=0: compare the low 32-bit views
        a, b = B.extract(31, 0, rGPR(m, ra)), b_of(32)
    lt = B.bvult(a, b) if unsigned else B.bvslt(a, b)
    eq = B.eq(a, b)
    gt = B.and_(B.not_(lt), B.not_(eq))
    _write_cmp_cr(m, bf, lt, gt, eq)
    advance_pc(m)


@sail_fn
def execute_cmpi(m, opcode: Term, unsigned: bool = False) -> None:
    ext = P.zero_extend if unsigned else P.sign_extend
    _compare(m, opcode, lambda width: ext(fld(opcode, 15, 0), width), unsigned)


@sail_fn
def execute_cmp(m, opcode: Term, unsigned: bool = False) -> None:
    rb = fld_int(opcode, 15, 11)

    def operand(width: int) -> Term:
        value = rGPR(m, rb)
        return B.extract(31, 0, value) if width == 32 else value

    _compare(m, opcode, operand, unsigned)


@sail_fn
def execute_load(m, opcode: Term, nbytes: int, ds_form: bool = False) -> None:
    rt = fld_int(opcode, 25, 21)
    ra = fld_int(opcode, 20, 16)
    disp = _imm_ds(opcode) if ds_form else _imm_d(opcode)
    addr = m.define("addr", B.bvadd(rA_or_zero(m, ra), disp))
    data = m.read_mem(addr, nbytes)
    wGPR(m, rt, m.define("loaded", P.zero_extend(data, 64)))
    advance_pc(m)


@sail_fn
def execute_store(m, opcode: Term, nbytes: int, ds_form: bool = False) -> None:
    rs = fld_int(opcode, 25, 21)
    ra = fld_int(opcode, 20, 16)
    disp = _imm_ds(opcode) if ds_form else _imm_d(opcode)
    addr = m.define("addr", B.bvadd(rA_or_zero(m, ra), disp))
    data = rGPR(m, rs)
    m.write_mem(addr, B.extract(8 * nbytes - 1, 0, data), nbytes)
    advance_pc(m)


# -- branches ----------------------------------------------------------------


def _branch_condition(m, bo: int, bi: int) -> Term | None:
    """The taken-condition of a BO/BI pair, or None when unconditional.

    Decrements CTR when BO asks for it (always, taken or not); the CTR
    test reads the *new* value, per the ISA.
    """
    ignore_cond = bool(bo & 0b10000)
    cond_sense = bool(bo & 0b01000)
    no_ctr = bool(bo & 0b00100)
    ctr_sense = bool(bo & 0b00010)
    conds = []
    if not no_ctr:
        ctr = m.define("ctr", B.bvsub(m.read_reg(CTR), B.bv(1, 64)))
        m.write_reg(CTR, ctr)
        zero = B.eq(ctr, B.bv(0, 64))
        conds.append(zero if ctr_sense else B.not_(zero))
    if not ignore_cond:
        crf = m.read_reg(cr_field(bi >> 2))
        bit = P.bit(crf, 3 - (bi & 3))  # BI counts LT,GT,EQ,SO from the MSB
        conds.append(B.eq(bit, B.bv(1 if cond_sense else 0, 1)))
    if not conds:
        return None
    cond = conds[0]
    for extra in conds[1:]:
        cond = B.and_(cond, extra)
    return cond


def _conditional_branch(m, bo: int, bi: int, pc: Term, target: Term) -> None:
    cond = _branch_condition(m, bo, bi)
    if cond is None:
        m.write_reg(PC, target)
    elif m.branch(cond, "branch taken"):
        m.write_reg(PC, target)
    else:
        advance_pc(m, pc)


@sail_fn
def execute_b(m, opcode: Term) -> None:
    if fld_int(opcode, 1, 1):
        m.unreachable("absolute branches not modelled")
        return
    pc = m.read_reg(PC)
    if fld_int(opcode, 0, 0):
        m.write_reg(LR, B.bvadd(pc, B.bv(4, 64)))
    m.write_reg(PC, m.define("target", B.bvadd(pc, _imm_li(opcode))))


@sail_fn
def execute_bc(m, opcode: Term) -> None:
    if fld_int(opcode, 1, 1):
        m.unreachable("absolute branches not modelled")
        return
    bo = fld_int(opcode, 25, 21)
    bi = fld_int(opcode, 20, 16)
    pc = m.read_reg(PC)
    if fld_int(opcode, 0, 0):
        # LK writes CIA+4 to LR whether or not the branch is taken.
        m.write_reg(LR, B.bvadd(pc, B.bv(4, 64)))
    target = m.define("target", B.bvadd(pc, _imm_ds(opcode)))
    _conditional_branch(m, bo, bi, pc, target)


@sail_fn
def execute_bclr(m, opcode: Term) -> None:
    bo = fld_int(opcode, 25, 21)
    bi = fld_int(opcode, 20, 16)
    pc = m.read_reg(PC)
    # Target comes from the *old* LR even when LK overwrites it.
    target = m.define("target", B.bvand(m.read_reg(LR), B.bv(~0b11, 64)))
    if fld_int(opcode, 0, 0):
        m.write_reg(LR, B.bvadd(pc, B.bv(4, 64)))
    _conditional_branch(m, bo, bi, pc, target)


@sail_fn
def execute_bcctr(m, opcode: Term) -> None:
    bo = fld_int(opcode, 25, 21)
    if not bo & 0b00100:
        m.unreachable("bcctr with CTR decrement is invalid")
        return
    bi = fld_int(opcode, 20, 16)
    pc = m.read_reg(PC)
    target = m.define("target", B.bvand(m.read_reg(CTR), B.bv(~0b11, 64)))
    if fld_int(opcode, 0, 0):
        m.write_reg(LR, B.bvadd(pc, B.bv(4, 64)))
    _conditional_branch(m, bo, bi, pc, target)


@sail_fn
def execute_xl(m, opcode: Term) -> None:
    xo = fld_int(opcode, 10, 1)
    if fld_int(opcode, 15, 11):
        m.unreachable("reserved XL-form BH/reserved bits not modelled")
        return
    if xo == 16:
        execute_bclr(m, opcode)
    elif xo == 528:
        execute_bcctr(m, opcode)
    else:
        m.unreachable(f"XL-form XO {xo} not modelled")


# -- major 31 (X / XO forms) -------------------------------------------------


@sail_fn
def execute_xo_arith(m, opcode: Term, sub: bool = False) -> None:
    rt = fld_int(opcode, 25, 21)
    ra = fld_int(opcode, 20, 16)
    rb = fld_int(opcode, 15, 11)
    a, b = rGPR(m, ra), rGPR(m, rb)
    result = B.bvsub(b, a) if sub else B.bvadd(a, b)  # subf: RB - RA
    wGPR(m, rt, m.define("alures", result))
    advance_pc(m)


_X_LOGIC_OPS = {28: B.bvand, 316: B.bvxor, 444: B.bvor}


@sail_fn
def execute_x_logic(m, opcode: Term) -> None:
    xo = fld_int(opcode, 10, 1)
    rs = fld_int(opcode, 25, 21)
    ra = fld_int(opcode, 20, 16)
    rb = fld_int(opcode, 15, 11)
    result = _X_LOGIC_OPS[xo](rGPR(m, rs), rGPR(m, rb))
    wGPR(m, ra, m.define("logres", result))
    advance_pc(m)


@sail_fn
def execute_mtspr(m, opcode: Term) -> None:
    rs = fld_int(opcode, 25, 21)
    field = fld_int(opcode, 20, 11)
    spr = FIELD_SPR.get(field)
    if spr is None:
        m.unreachable(f"SPR field {field:#05x} not modelled")
        return
    m.write_reg(Reg(SPR_REGISTERS[spr]), rGPR(m, rs))
    advance_pc(m)


@sail_fn
def execute_mfspr(m, opcode: Term) -> None:
    rt = fld_int(opcode, 25, 21)
    field = fld_int(opcode, 20, 11)
    spr = FIELD_SPR.get(field)
    if spr is None:
        m.unreachable(f"SPR field {field:#05x} not modelled")
        return
    wGPR(m, rt, m.read_reg(Reg(SPR_REGISTERS[spr])))
    advance_pc(m)


@sail_fn
def execute_major31(m, opcode: Term) -> None:
    xo = fld_int(opcode, 10, 1)
    rc = fld_int(opcode, 0, 0)
    if xo in (266, 40):  # add / subf (OE=1 lands outside these XO values)
        if rc:
            m.unreachable("record-form add/subf not modelled")
            return
        execute_xo_arith(m, opcode, sub=(xo == 40))
    elif xo in _X_LOGIC_OPS:
        if rc:
            m.unreachable("record-form logicals not modelled")
            return
        execute_x_logic(m, opcode)
    elif xo in (0, 32):  # cmp / cmpl
        if rc:
            m.unreachable("reserved compare bit 0")
            return
        execute_cmp(m, opcode, unsigned=(xo == 32))
    elif xo == 467:
        if rc:
            m.unreachable("reserved mtspr bit 0")
            return
        execute_mtspr(m, opcode)
    elif xo == 339:
        if rc:
            m.unreachable("reserved mfspr bit 0")
            return
        execute_mfspr(m, opcode)
    else:
        m.unreachable(f"X/XO-form XO {xo} not modelled")


class PpcModel(IsaModel):
    """The ppc64le fixed-point model."""

    name = "ppc64"
    pc_reg = PC
    instr_bytes = 4

    def _declare_registers(self, regfile: RegisterFile) -> None:
        declare_ppc_registers(regfile)

    def execute(self, m: MachineInterface, opcode: Term) -> None:
        major = fld_int(opcode, 31, 26)
        if major == 10:
            execute_cmpi(m, opcode, unsigned=True)
        elif major == 11:
            execute_cmpi(m, opcode)
        elif major == 14:
            execute_addi(m, opcode)
        elif major == 15:
            execute_addi(m, opcode, shifted=True)
        elif major == 16:
            execute_bc(m, opcode)
        elif major == 18:
            execute_b(m, opcode)
        elif major == 19:
            execute_xl(m, opcode)
        elif major in _LOGIC_IMM_OPS:
            execute_logic_imm(m, opcode)
        elif major == 31:
            execute_major31(m, opcode)
        elif major == 32:
            execute_load(m, opcode, 4)  # lwz
        elif major == 34:
            execute_load(m, opcode, 1)  # lbz
        elif major == 36:
            execute_store(m, opcode, 4)  # stw
        elif major == 38:
            execute_store(m, opcode, 1)  # stb
        elif major == 58:
            if fld_int(opcode, 1, 0):
                m.unreachable("DS-form load XO not modelled (only ld)")
            else:
                execute_load(m, opcode, 8, ds_form=True)
        elif major == 62:
            if fld_int(opcode, 1, 0):
                m.unreachable("DS-form store XO not modelled (only std)")
            else:
                execute_store(m, opcode, 8, ds_form=True)
        else:
            m.unreachable(f"primary opcode {major} not modelled")
