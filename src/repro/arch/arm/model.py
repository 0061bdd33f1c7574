"""Mini-Sail model of the AArch64 subset exercised by the case studies.

The model mirrors the *structure* of the real Sail/ASL Armv8-A definition:
a top-level decoder dispatches on encoding-class bit patterns to
``@sail_fn``-decorated decode functions, which extract fields and call the
shared execution datapaths (``integer_arithmetic_addsub_immediate`` and
friends, cf. Fig. 2).  All register accesses go through the banked accessors
(``aget_SP``/``aset_SP`` select among SP_EL0..SP_EL3 based on PSTATE.SP and
PSTATE.EL), memory accesses go through the alignment-checking translation-off
path, and exceptions (hvc, data aborts) and exception return (eret) update
the full EL2/EL1 system state.

What is deliberately kept from the real model's "irrelevant complexity":
flags are always computed by ``AddWithCarry`` even when discarded; the
stack-pointer selection branches on PSTATE even though it is almost always
pinned; loads/stores share one datapath across sizes and both check
alignment.  This is the complexity Isla's symbolic execution must — and
does — prune.

Deliberate simplifications (documented in DESIGN.md): no address
translation (SCTLR.M assumed 0), no AArch32, 64-bit little-endian only, no
tagged memory, no FP/SIMD.
"""

from __future__ import annotations

from ...itl.events import Reg
from ...sail import primitives as P
from ...sail.iface import MachineInterface, sail_fn
from ...sail.model import IsaModel
from ...sail.registers import RegisterFile
from ...smt import builder as B
from ...smt.terms import FALSE, TRUE, Term
from . import regs as R
from .regs import PC, gpr, pstate


def _pattern_mask(pattern: str) -> tuple[int, int]:
    """``(mask, value)`` of an MSB-first 32-bit pattern of 0/1/x: an opcode
    matches when ``opcode & mask == value``.  Underscores are cosmetic."""
    pattern = pattern.replace("_", "")
    if len(pattern) != 32:
        raise ValueError(f"pattern length {len(pattern)} != 32: {pattern!r}")
    mask = 0
    value = 0
    for i, ch in enumerate(pattern):
        bitpos = 31 - i
        if ch == "x":
            continue
        mask |= 1 << bitpos
        if ch == "1":
            value |= 1 << bitpos
    return mask, value


def _mask_match(opcode: Term, mask: int, value: int) -> Term:
    return B.eq(B.bvand(opcode, B.bv(mask, 32)), B.bv(value, 32))


def bits_match(opcode: Term, pattern: str) -> Term:
    """Match a 32-bit opcode against an MSB-first pattern of 0/1/x.

    Underscores are cosmetic.  Returns a boolean term (folds to a constant
    when the tested bits of the opcode are concrete).
    """
    return _mask_match(opcode, *_pattern_mask(pattern))


def fld(opcode: Term, hi: int, lo: int) -> Term:
    return B.extract(hi, lo, opcode)


def fld_int(opcode: Term, hi: int, lo: int) -> int:
    """Extract a field that must be concrete (decode-class fields)."""
    t = fld(opcode, hi, lo)
    if not t.is_value():
        raise ValueError(f"symbolic decode field [{hi}:{lo}]")
    return t.value


# ---------------------------------------------------------------------------
# Register accessors (the banked-register machinery of §2.1).
# ---------------------------------------------------------------------------


@sail_fn
def aget_X(m: MachineInterface, n: int, datasize: int = 64) -> Term:
    """Read general-purpose register Xn/Wn; X31 reads as zero."""
    if n == 31:
        return P.zeros(datasize)
    value = m.read_reg(gpr(n))
    return value if datasize == 64 else B.extract(datasize - 1, 0, value)


@sail_fn
def aset_X(m: MachineInterface, n: int, value: Term) -> None:
    """Write Xn/Wn (32-bit writes zero-extend); X31 writes are discarded."""
    if n == 31:
        return
    m.write_reg(gpr(n), P.zero_extend(value, 64))


@sail_fn
def aget_SP(m: MachineInterface, datasize: int = 64) -> Term:
    """Read the *banked* stack pointer selected by PSTATE.SP / PSTATE.EL."""
    value = m.read_reg(_select_sp_reg(m))
    return value if datasize == 64 else B.extract(datasize - 1, 0, value)


@sail_fn
def aset_SP(m: MachineInterface, value: Term) -> None:
    m.write_reg(_select_sp_reg(m), P.zero_extend(value, 64))


def _select_sp_reg(m: MachineInterface) -> Reg:
    sp_bit = m.read_reg(pstate("SP"))
    if m.branch(B.eq(sp_bit, B.bv(0, 1)), "PSTATE.SP == 0"):
        return R.sp_for_el(0)
    el = m.read_reg(pstate("EL"))
    for candidate in range(3):
        if m.branch(B.eq(el, B.bv(candidate, 2)), f"EL == {candidate}"):
            return R.sp_for_el(candidate)
    return R.sp_for_el(3)


@sail_fn
def condition_holds(m: MachineInterface, cond: int) -> Term:
    """ASL ``ConditionHolds``: evaluate a 4-bit condition against NZCV.

    Returns a boolean *term*; the caller decides whether to branch on it.
    """
    n = m.read_reg(pstate("N"))
    z = m.read_reg(pstate("Z"))
    c = m.read_reg(pstate("C"))
    v = m.read_reg(pstate("V"))
    one = B.bv(1, 1)
    base = cond >> 1
    if base == 0b000:
        result = B.eq(z, one)  # EQ/NE
    elif base == 0b001:
        result = B.eq(c, one)  # CS/CC
    elif base == 0b010:
        result = B.eq(n, one)  # MI/PL
    elif base == 0b011:
        result = B.eq(v, one)  # VS/VC
    elif base == 0b100:
        result = B.and_(B.eq(c, one), B.eq(z, B.bv(0, 1)))  # HI/LS
    elif base == 0b101:
        result = B.eq(n, v)  # GE/LT
    elif base == 0b110:
        result = B.and_(B.eq(n, v), B.eq(z, B.bv(0, 1)))  # GT/LE
    else:
        result = B.true()  # AL
    if cond & 1 and cond != 0b1111:
        result = B.not_(result)
    return result


def set_nzcv(m: MachineInterface, nzcv: Term) -> None:
    m.write_reg(pstate("N"), B.extract(3, 3, nzcv))
    m.write_reg(pstate("Z"), B.extract(2, 2, nzcv))
    m.write_reg(pstate("C"), B.extract(1, 1, nzcv))
    m.write_reg(pstate("V"), B.extract(0, 0, nzcv))


def advance_pc(m: MachineInterface, pc: Term | None = None) -> None:
    if pc is None:
        pc = m.read_reg(PC)
    m.write_reg(PC, B.bvadd(pc, B.bv(4, 64)))


# ---------------------------------------------------------------------------
# Memory (translation off; alignment checks per SCTLR_ELx.A).
# ---------------------------------------------------------------------------


def _sctlr_for_el(m: MachineInterface) -> Reg:
    el = m.read_reg(pstate("EL"))
    if m.branch(B.eq(el, B.bv(2, 2)), "EL == 2 (sctlr)"):
        return Reg("SCTLR_EL2")
    # EL0 uses SCTLR_EL1; we collapse EL0/EL1/EL3 to SCTLR_EL1 here (EL3 is
    # never exercised with memory traffic in the case studies).
    return Reg("SCTLR_EL1")


@sail_fn
def check_alignment(m: MachineInterface, addr: Term, nbytes: int, iswrite: bool) -> None:
    """Raise an alignment Data Abort when SCTLR.A is set and addr unaligned."""
    if nbytes == 1:
        return
    sctlr = m.read_reg(_sctlr_for_el(m))
    a_bit = P.bit_set(sctlr, 1)  # SCTLR_ELx.A
    misaligned = B.not_(P.is_aligned(addr, nbytes))
    if m.branch(B.and_(a_bit, misaligned), "alignment fault"):
        iss = R.DFSC_ALIGNMENT | (int(iswrite) << 6)  # ISS.WnR at bit 6
        pc = m.read_reg(PC)
        take_exception(
            m,
            ec=R.EC_DATA_ABORT_SAME,
            iss=iss,
            preferred_return=pc,
            far=addr,
            same_el=True,
        )
        raise _ExceptionTaken()


@sail_fn
def mem_read(m: MachineInterface, addr: Term, nbytes: int) -> Term:
    check_alignment(m, addr, nbytes, iswrite=False)
    return m.read_mem(addr, nbytes)


@sail_fn
def mem_write(m: MachineInterface, addr: Term, data: Term, nbytes: int) -> None:
    check_alignment(m, addr, nbytes, iswrite=True)
    m.write_mem(addr, data, nbytes)


class _ExceptionTaken(Exception):
    """Internal control flow: an exception redirected the instruction."""


# ---------------------------------------------------------------------------
# Exception entry and return.
# ---------------------------------------------------------------------------


@sail_fn
def take_exception(
    m: MachineInterface,
    ec: int,
    iss: int,
    preferred_return: Term,
    far: Term | None = None,
    same_el: bool = False,
    target_el: int = 2,
) -> None:
    """AArch64.TakeException, specialised to synchronous exceptions.

    ``same_el=True`` routes to the current EL's vector (alignment faults in
    the case studies); otherwise to ``target_el`` (hypervisor calls).
    """
    if same_el:
        el = m.read_reg(pstate("EL"))
        for candidate in (2, 1):
            if m.branch(B.eq(el, B.bv(candidate, 2)), f"exc at EL{candidate}"):
                target_el = candidate
                break
        else:
            m.unreachable("exceptions to EL0/EL3 not modelled")
    suffix = f"EL{target_el}"

    # Build SPSR from current PSTATE.
    spsr = _build_spsr(m)
    m.write_reg(Reg(f"SPSR_{suffix}"), spsr)
    m.write_reg(Reg(f"ELR_{suffix}"), preferred_return)
    esr = (ec << 26) | (1 << 25) | iss  # IL=1: 32-bit instruction
    m.write_reg(Reg(f"ESR_{suffix}"), B.bv(esr, 64))
    if far is not None:
        m.write_reg(Reg(f"FAR_{suffix}"), far)

    # Vector offset: same-EL-SPx vs lower-EL-AArch64.
    if same_el:
        offset = R.VECTOR_CURRENT_SPX_SYNC
        sp_bit = m.read_reg(pstate("SP"))
        if m.branch(B.eq(sp_bit, B.bv(0, 1)), "vector SP0"):
            offset = R.VECTOR_CURRENT_SP0_SYNC
    else:
        offset = R.VECTOR_LOWER_A64_SYNC

    # Update PSTATE: jump to target EL, banked SP, interrupts masked.
    m.write_reg(pstate("EL"), B.bv(target_el, 2))
    m.write_reg(pstate("SP"), B.bv(1, 1))
    for flag in "DAIF":
        m.write_reg(pstate(flag), B.bv(1, 1))
    vbar = m.read_reg(Reg(f"VBAR_{suffix}"))
    m.write_reg(PC, B.bvadd(vbar, B.bv(offset, 64)))


def pack_spsr(
    n: Term, z: Term, c: Term, v: Term,
    d: Term, a: Term, i: Term, f: Term,
    el: Term, sp: Term,
) -> Term:
    """The SPSR_ELx layout for an AArch64 state (pure; shared with specs)."""
    return B.concat_many(
        P.zeros(32),  # SPSR_ELx is 64-bit; the upper word is RES0
        n, z, c, v,  # 31..28
        P.zeros(18),  # 27..10
        d, a, i, f,  # 9..6
        P.zeros(1),  # 5
        B.bv(0, 1),  # 4: nRW = 0 (AArch64)
        el,  # 3..2
        P.zeros(1),  # 1
        sp,  # 0
    )


def _build_spsr(m: MachineInterface) -> Term:
    """Pack the current PSTATE into the SPSR format."""
    return pack_spsr(
        m.read_reg(pstate("N")), m.read_reg(pstate("Z")),
        m.read_reg(pstate("C")), m.read_reg(pstate("V")),
        m.read_reg(pstate("D")), m.read_reg(pstate("A")),
        m.read_reg(pstate("I")), m.read_reg(pstate("F")),
        m.read_reg(pstate("EL")), m.read_reg(pstate("SP")),
    )


@sail_fn
def exception_return(m: MachineInterface) -> None:
    """ERET: restore PSTATE from SPSR_ELx and jump to ELR_ELx."""
    el = m.read_reg(pstate("EL"))
    source_el = None
    for candidate in (2, 1, 3):
        if m.branch(B.eq(el, B.bv(candidate, 2)), f"eret at EL{candidate}"):
            source_el = candidate
            break
    if source_el is None:
        m.unreachable("eret at EL0")
    suffix = f"EL{source_el}"
    spsr = m.read_reg(Reg(f"SPSR_{suffix}"))
    elr = m.read_reg(Reg(f"ELR_{suffix}"))

    if m.branch(P.bit_set(spsr, 4), "SPSR.nRW (AArch32 return)"):
        m.unreachable("AArch32 exception return not modelled")

    target_el_bits = B.extract(3, 2, spsr)
    target_el = None
    for candidate in range(source_el, -1, -1):
        if m.branch(B.eq(target_el_bits, B.bv(candidate, 2)), f"eret to EL{candidate}"):
            target_el = candidate
            break
    if target_el is None:
        m.unreachable("illegal exception return (target EL above current)")

    # Returning to AArch64 EL1/EL0 under a hypervisor needs HCR_EL2.RW = 1.
    if target_el < 2 and source_el == 2:
        hcr = m.read_reg(Reg("HCR_EL2"))
        if m.branch(B.not_(P.bit_set(hcr, 31)), "HCR_EL2.RW == 0"):
            m.unreachable("AArch32 EL1 not modelled (HCR_EL2.RW = 0)")

    m.write_reg(pstate("N"), B.extract(31, 31, spsr))
    m.write_reg(pstate("Z"), B.extract(30, 30, spsr))
    m.write_reg(pstate("C"), B.extract(29, 29, spsr))
    m.write_reg(pstate("V"), B.extract(28, 28, spsr))
    m.write_reg(pstate("D"), B.extract(9, 9, spsr))
    m.write_reg(pstate("A"), B.extract(8, 8, spsr))
    m.write_reg(pstate("I"), B.extract(7, 7, spsr))
    m.write_reg(pstate("F"), B.extract(6, 6, spsr))
    m.write_reg(pstate("EL"), B.bv(target_el, 2))
    m.write_reg(pstate("SP"), B.extract(0, 0, spsr))
    m.write_reg(PC, elr)


# ---------------------------------------------------------------------------
# Instruction classes.
# ---------------------------------------------------------------------------


@sail_fn
def integer_arithmetic_addsub_immediate_decode(m, opcode: Term) -> None:
    """Decode add/sub (immediate); Fig. 2's entry path."""
    sf = fld_int(opcode, 31, 31)
    op = fld_int(opcode, 30, 30)  # 0 add, 1 sub
    setflags = fld_int(opcode, 29, 29)
    shift = fld_int(opcode, 23, 22)
    imm12 = fld(opcode, 21, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    if shift == 0b00:
        imm = P.zero_extend(imm12, datasize)
    elif shift == 0b01:
        imm = P.zero_extend(B.concat(imm12, P.zeros(12)), datasize)
    else:
        m.unreachable("ADDG/SUBG (MTE) not modelled")
        return
    integer_arithmetic_addsub_immediate(
        m, rd, rn, imm, datasize, sub_op=bool(op), setflags=bool(setflags)
    )


@sail_fn
def integer_arithmetic_addsub_immediate(
    m, d: int, n: int, imm: Term, datasize: int, sub_op: bool, setflags: bool
) -> None:
    """The shared add/sub datapath of Fig. 2 (lines 17-28)."""
    op1 = aget_SP(m, datasize) if n == 31 else aget_X(m, n, datasize)
    if sub_op:
        op2 = B.bvnot(imm)
        carry_in = B.bv(1, 1)
    else:
        op2 = imm
        carry_in = B.bv(0, 1)
    result, nzcv = P.add_with_carry(op1, op2, carry_in)
    result = m.define("result", result)
    if setflags:
        set_nzcv(m, nzcv)
    if d == 31 and not setflags:
        aset_SP(m, result)
    else:
        aset_X(m, d, result)
    advance_pc(m)


@sail_fn
def integer_arithmetic_addsub_shiftedreg(m, opcode: Term) -> None:
    sf = fld_int(opcode, 31, 31)
    op = fld_int(opcode, 30, 30)
    setflags = bool(fld_int(opcode, 29, 29))
    shift_type = fld_int(opcode, 23, 22)
    rm = fld_int(opcode, 20, 16)
    imm6 = fld_int(opcode, 15, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    if shift_type == 0b11:
        m.unreachable("reserved shift for add/sub")
    if not sf and imm6 >= 32:
        m.unreachable("reserved shift amount")
    op1 = aget_X(m, rn, datasize)
    op2 = _shift_reg(aget_X(m, rm, datasize), shift_type, imm6)
    if op:
        op2 = B.bvnot(op2)
        carry_in = B.bv(1, 1)
    else:
        carry_in = B.bv(0, 1)
    result, nzcv = P.add_with_carry(op1, op2, carry_in)
    result = m.define("result", result)
    if setflags:
        set_nzcv(m, nzcv)
    aset_X(m, rd, result)
    advance_pc(m)


def _shift_reg(value: Term, shift_type: int, amount: int) -> Term:
    w = value.width
    sh = B.bv(amount, w)
    if shift_type == 0b00:
        return B.bvshl(value, sh)
    if shift_type == 0b01:
        return B.bvlshr(value, sh)
    if shift_type == 0b10:
        return B.bvashr(value, sh)
    amount %= w
    if amount == 0:
        return value
    return B.concat(B.extract(amount - 1, 0, value), B.extract(w - 1, amount, value))


@sail_fn
def integer_logical_shiftedreg(m, opcode: Term) -> None:
    sf = fld_int(opcode, 31, 31)
    opc = fld_int(opcode, 30, 29)
    shift_type = fld_int(opcode, 23, 22)
    invert = fld_int(opcode, 21, 21)
    rm = fld_int(opcode, 20, 16)
    imm6 = fld_int(opcode, 15, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    if not sf and imm6 >= 32:
        m.unreachable("reserved shift amount")
    op1 = aget_X(m, rn, datasize)
    op2 = _shift_reg(aget_X(m, rm, datasize), shift_type, imm6)
    if invert:
        op2 = B.bvnot(op2)
    result, setflags = _logical_op(opc, op1, op2)
    result = m.define("result", result)
    if setflags:
        _set_logical_flags(m, result, datasize)
    aset_X(m, rd, result)
    advance_pc(m)


def _logical_op(opc: int, op1: Term, op2: Term) -> tuple[Term, bool]:
    if opc == 0b00:
        return B.bvand(op1, op2), False
    if opc == 0b01:
        return B.bvor(op1, op2), False
    if opc == 0b10:
        return B.bvxor(op1, op2), False
    return B.bvand(op1, op2), True  # ANDS / TST


def _set_logical_flags(m, result: Term, datasize: int) -> None:
    m.write_reg(pstate("N"), B.extract(datasize - 1, datasize - 1, result))
    m.write_reg(
        pstate("Z"), P.bool_to_bit(B.eq(result, P.zeros(datasize)))
    )
    m.write_reg(pstate("C"), B.bv(0, 1))
    m.write_reg(pstate("V"), B.bv(0, 1))


def decode_bit_masks(immn: int, imms: int, immr: int, datasize: int) -> int:
    """ASL ``DecodeBitMasks`` for logical immediates (wmask only)."""
    # Find the element size from the leading-one pattern of immN:NOT(imms).
    combined = (immn << 6) | (~imms & 0x3F)
    length = combined.bit_length() - 1
    if length < 1:
        raise ValueError("reserved logical immediate")
    esize = 1 << length
    levels = esize - 1
    s = imms & levels
    r = immr & levels
    if s == levels:
        raise ValueError("reserved logical immediate (s == levels)")
    welem = (1 << (s + 1)) - 1
    # Rotate right within the element, then replicate.
    welem = ((welem >> r) | (welem << (esize - r))) & ((1 << esize) - 1)
    wmask = 0
    for i in range(datasize // esize):
        wmask |= welem << (i * esize)
    return wmask


@sail_fn
def integer_logical_immediate(m, opcode: Term) -> None:
    sf = fld_int(opcode, 31, 31)
    opc = fld_int(opcode, 30, 29)
    immn = fld_int(opcode, 22, 22)
    immr = fld_int(opcode, 21, 16)
    imms = fld_int(opcode, 15, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    if not sf and immn:
        m.unreachable("reserved logical immediate (N=1, 32-bit)")
    try:
        imm = B.bv(decode_bit_masks(immn, imms, immr, datasize), datasize)
    except ValueError as exc:
        m.unreachable(str(exc))
        return
    op1 = aget_X(m, rn, datasize)
    result, setflags = _logical_op(opc, op1, imm)
    result = m.define("result", result)
    if setflags:
        _set_logical_flags(m, result, datasize)
    if rd == 31 and not setflags:
        aset_SP(m, P.zero_extend(result, 64))
    else:
        aset_X(m, rd, result)
    advance_pc(m)


@sail_fn
def integer_ins_movewide(m, opcode: Term) -> None:
    """MOVN/MOVZ/MOVK — supports *symbolic immediates* (pKVM relocation)."""
    sf = fld_int(opcode, 31, 31)
    opc = fld_int(opcode, 30, 29)
    hw = fld_int(opcode, 22, 21)
    imm16 = fld(opcode, 20, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    if not sf and hw >= 2:
        m.unreachable("reserved movewide shift")
    pos = hw * 16
    if opc == 0b00:  # MOVN
        value = B.bvnot(P.set_slice(P.zeros(datasize), pos, imm16))
    elif opc == 0b10:  # MOVZ
        value = P.set_slice(P.zeros(datasize), pos, imm16)
    elif opc == 0b11:  # MOVK
        old = aget_X(m, rd, datasize)
        value = P.set_slice(old, pos, imm16)
    else:
        m.unreachable("reserved movewide opc")
        return
    value = m.define("movewide", value)
    aset_X(m, rd, value)
    advance_pc(m)


@sail_fn
def integer_bitfield_ubfm_sbfm(m, opcode: Term) -> None:
    """UBFM/SBFM subset: the aliases used by compiled code (LSR/LSL/UXTB/
    ASR/SXTW immediate forms where imms/immr describe a plain shift or
    extension)."""
    sf = fld_int(opcode, 31, 31)
    opc = fld_int(opcode, 30, 29)
    immr = fld_int(opcode, 21, 16)
    imms = fld_int(opcode, 15, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    src = aget_X(m, rn, datasize)
    signed = opc == 0b00
    if opc not in (0b00, 0b10):
        m.unreachable("BFM not modelled")
    if imms >= immr:
        # Extract bits [imms:immr] into the bottom, extend.
        part = B.extract(imms, immr, src)
        ext = P.sign_extend if signed else P.zero_extend
        result = ext(part, datasize)
    else:
        # Insert bits [imms:0] at position datasize - immr.
        part = B.extract(imms, 0, src)
        shift = (datasize - immr) % datasize
        result = B.bvshl(P.zero_extend(part, datasize), B.bv(shift, datasize))
        if signed:
            width = imms + 1 + shift
            result = P.sign_extend(B.extract(width - 1, 0, result), datasize)
    result = m.define("bitfield", result)
    aset_X(m, rd, result)
    advance_pc(m)


@sail_fn
def integer_conditional_select(m, opcode: Term) -> None:
    """CSEL/CSINC/CSINV/CSNEG (covers the CSET/CINC aliases)."""
    sf = fld_int(opcode, 31, 31)
    op = fld_int(opcode, 30, 30)
    rm = fld_int(opcode, 20, 16)
    cond = fld_int(opcode, 15, 12)
    o2 = fld_int(opcode, 10, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    holds = condition_holds(m, cond)
    val_true = aget_X(m, rn, datasize)
    val_false = aget_X(m, rm, datasize)
    if op and o2:
        val_false = B.bvneg(val_false)
    elif op:
        val_false = B.bvnot(val_false)
    elif o2:
        val_false = B.bvadd(val_false, B.bv(1, datasize))
    result = m.define("csel", B.ite(holds, val_true, val_false))
    aset_X(m, rd, result)
    advance_pc(m)


@sail_fn
def integer_conditional_compare(m, opcode: Term) -> None:
    """CCMP/CCMN (register and immediate forms)."""
    sf = fld_int(opcode, 31, 31)
    is_ccmp = fld_int(opcode, 30, 30)
    imm_form = fld_int(opcode, 11, 11)
    cond = fld_int(opcode, 15, 12)
    rn = fld_int(opcode, 9, 5)
    nzcv_imm = fld_int(opcode, 3, 0)
    datasize = 64 if sf else 32
    holds = condition_holds(m, cond)
    op1 = aget_X(m, rn, datasize)
    if imm_form:
        op2 = P.zero_extend(fld(opcode, 20, 16), datasize)
    else:
        op2 = aget_X(m, fld_int(opcode, 20, 16), datasize)
    if is_ccmp:
        op2 = B.bvnot(op2)
        carry = B.bv(1, 1)
    else:
        carry = B.bv(0, 1)
    _, computed = P.add_with_carry(op1, op2, carry)
    nzcv = m.define("ccmp_nzcv", B.ite(holds, computed, B.bv(nzcv_imm, 4)))
    set_nzcv(m, nzcv)
    advance_pc(m)


@sail_fn
def integer_arithmetic_div(m, opcode: Term) -> None:
    """UDIV/SDIV.  Division by zero yields zero (Armv8-A, no trap)."""
    sf = fld_int(opcode, 31, 31)
    rm = fld_int(opcode, 20, 16)
    is_signed = fld_int(opcode, 10, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    dividend = aget_X(m, rn, datasize)
    divisor = aget_X(m, rm, datasize)
    if is_signed:
        # Round-towards-zero signed division built from the unsigned one.
        sign_n = P.bit_set(dividend, datasize - 1)
        sign_m = P.bit_set(divisor, datasize - 1)
        abs_n = B.ite(sign_n, B.bvneg(dividend), dividend)
        abs_m = B.ite(sign_m, B.bvneg(divisor), divisor)
        quotient = B.bvudiv(abs_n, abs_m)
        result = B.ite(B.xor(sign_n, sign_m), B.bvneg(quotient), quotient)
    else:
        result = B.bvudiv(dividend, divisor)
    # SMT-LIB bvudiv returns all-ones on zero divisors; Arm returns zero.
    result = B.ite(B.eq(divisor, P.zeros(datasize)), P.zeros(datasize), result)
    aset_X(m, rd, m.define("quotient", result))
    advance_pc(m)


@sail_fn
def integer_arithmetic_rbit(m, opcode: Term) -> None:
    sf = fld_int(opcode, 31, 31)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    src = aget_X(m, rn, datasize)
    result = m.define("rbit", P.reverse_bits(src))
    aset_X(m, rd, result)
    advance_pc(m)


# -- loads and stores ---------------------------------------------------------


@sail_fn
def memory_single_general_immediate_unsigned(m, opcode: Term) -> None:
    size = fld_int(opcode, 31, 30)
    opc = fld_int(opcode, 23, 22)
    imm12 = fld_int(opcode, 21, 10)
    rn = fld_int(opcode, 9, 5)
    rt = fld_int(opcode, 4, 0)
    nbytes = 1 << size
    offset = imm12 << size
    addr = _ldst_base(m, rn)
    addr = m.define("addr", B.bvadd(addr, B.bv(offset, 64)))
    _ldst_common(m, opc, size, addr, rt, nbytes)


@sail_fn
def memory_single_general_register(m, opcode: Term) -> None:
    size = fld_int(opcode, 31, 30)
    opc = fld_int(opcode, 23, 22)
    rm = fld_int(opcode, 20, 16)
    option = fld_int(opcode, 15, 13)
    s_bit = fld_int(opcode, 12, 12)
    rn = fld_int(opcode, 9, 5)
    rt = fld_int(opcode, 4, 0)
    nbytes = 1 << size
    shift = size if s_bit else 0
    if option == 0b011:  # LSL (UXTX)
        offset = aget_X(m, rm, 64)
    elif option == 0b010:  # UXTW
        offset = P.zero_extend(aget_X(m, rm, 32), 64)
    elif option == 0b110:  # SXTW
        offset = P.sign_extend(aget_X(m, rm, 32), 64)
    else:
        m.unreachable(f"ldst register option {option:#05b} not modelled")
        return
    if shift:
        offset = B.bvshl(offset, B.bv(shift, 64))
    base = _ldst_base(m, rn)
    addr = m.define("addr", B.bvadd(base, offset))
    _ldst_common(m, opc, size, addr, rt, nbytes)


def _ldst_base(m, rn: int) -> Term:
    return aget_SP(m) if rn == 31 else aget_X(m, rn, 64)


def _ldst_common(m, opc: int, size: int, addr: Term, rt: int, nbytes: int) -> None:
    datasize = 8 * nbytes
    try:
        if opc == 0b00:  # STR
            data = aget_X(m, rt, min(datasize, 64))
            mem_write(m, addr, B.extract(datasize - 1, 0, data), nbytes)
        elif opc == 0b01:  # LDR (zero-extending)
            data = mem_read(m, addr, nbytes)
            regsize = 64 if size == 0b11 else 32
            aset_X(m, rt, P.zero_extend(data, regsize))
        elif opc == 0b10 and size < 0b11:  # LDRS* to 64-bit
            data = mem_read(m, addr, nbytes)
            aset_X(m, rt, P.sign_extend(data, 64))
        else:
            m.unreachable(f"load/store opc {opc:#04b} size {size} not modelled")
            return
    except _ExceptionTaken:
        return  # PC already redirected to the vector
    advance_pc(m)


@sail_fn
def memory_single_general_imm9(m, opcode: Term) -> None:
    """LDR/STR (immediate, pre/post-indexed) and LDUR/STUR (unscaled)."""
    size = fld_int(opcode, 31, 30)
    opc = fld_int(opcode, 23, 22)
    imm9 = fld_int(opcode, 20, 12)
    mode = fld_int(opcode, 11, 10)  # 00 unscaled, 01 post, 11 pre
    rn = fld_int(opcode, 9, 5)
    rt = fld_int(opcode, 4, 0)
    nbytes = 1 << size
    offset = B.bv(imm9 if imm9 < 256 else imm9 - 512, 64)
    base = _ldst_base(m, rn)
    addr = m.define("addr", base if mode == 0b01 else B.bvadd(base, offset))
    wback = mode in (0b01, 0b11)
    try:
        if opc == 0b00:  # STR/STUR
            data = aget_X(m, rt, min(8 * nbytes, 64))
            mem_write(m, addr, B.extract(8 * nbytes - 1, 0, data), nbytes)
        elif opc == 0b01:  # LDR/LDUR
            data = mem_read(m, addr, nbytes)
            regsize = 64 if size == 0b11 else 32
            aset_X(m, rt, P.zero_extend(data, regsize))
        else:
            m.unreachable(f"imm9 load/store opc {opc:#04b} not modelled")
            return
    except _ExceptionTaken:
        return
    if wback:
        new_base = m.define("wback", B.bvadd(base, offset))
        if rn == 31:
            aset_SP(m, new_base)
        else:
            aset_X(m, rn, new_base)
    advance_pc(m)


@sail_fn
def memory_pair_general(m, opcode: Term) -> None:
    """LDP/STP (signed offset, pre-indexed, post-indexed)."""
    opc = fld_int(opcode, 31, 30)
    mode = fld_int(opcode, 24, 23)  # 01 post, 10 signed offset, 11 pre
    is_load = fld_int(opcode, 22, 22)
    imm7 = fld_int(opcode, 21, 15)
    rt2 = fld_int(opcode, 14, 10)
    rn = fld_int(opcode, 9, 5)
    rt = fld_int(opcode, 4, 0)
    if opc == 0b01 or opc == 0b11:
        m.unreachable("LDPSW / SIMD pair not modelled")
        return
    datasize = 64 if opc == 0b10 else 32
    nbytes = datasize // 8
    scaled = (imm7 if imm7 < 64 else imm7 - 128) * nbytes
    offset = B.bv(scaled, 64)
    base = _ldst_base(m, rn)
    addr = m.define("addr", base if mode == 0b01 else B.bvadd(base, offset))
    addr2 = B.bvadd(addr, B.bv(nbytes, 64))
    try:
        if is_load:
            data1 = mem_read(m, addr, nbytes)
            data2 = mem_read(m, addr2, nbytes)
            aset_X(m, rt, P.zero_extend(data1, datasize))
            aset_X(m, rt2, P.zero_extend(data2, datasize))
        else:
            d1 = aget_X(m, rt, datasize)
            d2 = aget_X(m, rt2, datasize)
            mem_write(m, addr, d1, nbytes)
            mem_write(m, addr2, d2, nbytes)
    except _ExceptionTaken:
        return
    if mode in (0b01, 0b11):  # writeback
        new_base = m.define("wback", B.bvadd(base, offset))
        if rn == 31:
            aset_SP(m, new_base)
        else:
            aset_X(m, rn, new_base)
    advance_pc(m)


@sail_fn
def integer_pcrel_adr(m, opcode: Term) -> None:
    """ADR / ADRP."""
    is_page = fld_int(opcode, 31, 31)
    immlo = fld_int(opcode, 30, 29)
    immhi = fld_int(opcode, 23, 5)
    rd = fld_int(opcode, 4, 0)
    imm = (immhi << 2) | immlo
    if imm >= 1 << 20:
        imm -= 1 << 21
    pc = m.read_reg(PC)
    if is_page:
        target = B.bvadd(
            B.bvand(pc, B.bv(~0xFFF, 64)), B.bv((imm << 12) & ((1 << 64) - 1), 64)
        )
    else:
        target = B.bvadd(pc, B.bv(imm & ((1 << 64) - 1), 64))
    aset_X(m, rd, m.define("pcrel", target))
    advance_pc(m, pc)


@sail_fn
def integer_arithmetic_mul_madd(m, opcode: Term) -> None:
    """MADD / MSUB (covers the MUL and MNEG aliases)."""
    sf = fld_int(opcode, 31, 31)
    rm = fld_int(opcode, 20, 16)
    is_sub = fld_int(opcode, 15, 15)
    ra = fld_int(opcode, 14, 10)
    rn = fld_int(opcode, 9, 5)
    rd = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    product = B.bvmul(aget_X(m, rn, datasize), aget_X(m, rm, datasize))
    acc = aget_X(m, ra, datasize)
    result = B.bvsub(acc, product) if is_sub else B.bvadd(acc, product)
    aset_X(m, rd, m.define("maddres", result))
    advance_pc(m)


# -- branches --------------------------------------------------------------------


@sail_fn
def branch_conditional_compare(m, opcode: Term) -> None:
    """CBZ/CBNZ."""
    sf = fld_int(opcode, 31, 31)
    is_cbnz = fld_int(opcode, 24, 24)
    imm19 = fld_int(opcode, 23, 5)
    rt = fld_int(opcode, 4, 0)
    datasize = 64 if sf else 32
    value = aget_X(m, rt, datasize)
    offset = _signed_offset(imm19, 19)
    is_zero = B.eq(value, P.zeros(datasize))
    taken_cond = B.not_(is_zero) if is_cbnz else is_zero
    pc = m.read_reg(PC)
    if m.branch(taken_cond, "cbz/cbnz taken"):
        m.write_reg(PC, B.bvadd(pc, B.bv(offset, 64)))
    else:
        advance_pc(m, pc)


@sail_fn
def branch_conditional_test(m, opcode: Term) -> None:
    """TBZ/TBNZ: test a single bit and branch."""
    b5 = fld_int(opcode, 31, 31)
    is_tbnz = fld_int(opcode, 24, 24)
    b40 = fld_int(opcode, 23, 19)
    imm14 = fld_int(opcode, 18, 5)
    rt = fld_int(opcode, 4, 0)
    bitpos = (b5 << 5) | b40
    datasize = 64 if b5 else 32
    value = aget_X(m, rt, datasize)
    bit = B.extract(bitpos, bitpos, value)
    taken = B.eq(bit, B.bv(1 if is_tbnz else 0, 1))
    if imm14 >= 1 << 13:
        imm14 -= 1 << 14
    pc = m.read_reg(PC)
    if m.branch(taken, "tbz/tbnz taken"):
        m.write_reg(PC, B.bvadd(pc, B.bv((imm14 * 4) & ((1 << 64) - 1), 64)))
    else:
        advance_pc(m, pc)


@sail_fn
def branch_conditional_cond(m, opcode: Term) -> None:
    """B.cond — the Fig. 6 shape: flag read, then Cases on the condition."""
    imm19 = fld_int(opcode, 23, 5)
    cond = fld_int(opcode, 3, 0)
    holds = condition_holds(m, cond)
    offset = _signed_offset(imm19, 19)
    pc = m.read_reg(PC)
    if m.branch(holds, "b.cond taken"):
        m.write_reg(PC, B.bvadd(pc, B.bv(offset, 64)))
    else:
        advance_pc(m, pc)


@sail_fn
def branch_unconditional_immediate(m, opcode: Term) -> None:
    """B / BL."""
    is_bl = fld_int(opcode, 31, 31)
    imm26 = fld_int(opcode, 25, 0)
    offset = _signed_offset(imm26, 26)
    pc = m.read_reg(PC)
    if is_bl:
        aset_X(m, 30, B.bvadd(pc, B.bv(4, 64)))
    m.write_reg(PC, B.bvadd(pc, B.bv(offset, 64)))


@sail_fn
def branch_unconditional_register(m, opcode: Term) -> None:
    """BR / BLR / RET."""
    opc = fld_int(opcode, 24, 21)
    rn = fld_int(opcode, 9, 5)
    target = aget_X(m, rn, 64)
    if opc == 0b0001:  # BLR
        pc = m.read_reg(PC)
        aset_X(m, 30, B.bvadd(pc, B.bv(4, 64)))
    elif opc not in (0b0000, 0b0010):  # BR, RET
        m.unreachable(f"branch-register opc {opc:#06b} not modelled")
    m.write_reg(PC, target)


def _signed_offset(imm: int, bits: int) -> int:
    if imm >= 1 << (bits - 1):
        imm -= 1 << bits
    return (imm * 4) & ((1 << 64) - 1)


# -- system instructions ------------------------------------------------------------


@sail_fn
def system_register_access(m, opcode: Term) -> None:
    """MSR/MRS (register form)."""
    is_read = fld_int(opcode, 21, 21)  # L: 1 = MRS
    o0 = fld_int(opcode, 19, 19)
    op1 = fld_int(opcode, 18, 16)
    crn = fld_int(opcode, 15, 12)
    crm = fld_int(opcode, 11, 8)
    op2 = fld_int(opcode, 7, 5)
    rt = fld_int(opcode, 4, 0)
    enc = (2 + o0, op1, crn, crm, op2)
    name = R.ENCODING_TO_SYSREG.get(enc)
    if name is None:
        m.unreachable(f"unknown system register encoding {enc}")
        return
    reg = Reg(name)
    if is_read:
        aset_X(m, rt, m.read_reg(reg))
    else:
        m.write_reg(reg, aget_X(m, rt, 64))
    advance_pc(m)


@sail_fn
def system_hint(m, opcode: Term) -> None:
    """NOP and other hints (all behave as NOP here)."""
    advance_pc(m)


@sail_fn
def system_exceptions_hvc(m, opcode: Term) -> None:
    imm16 = fld_int(opcode, 20, 5)
    el = m.read_reg(pstate("EL"))
    # HVC is undefined at EL0; from EL1/EL2 it traps to EL2.
    if m.branch(B.eq(el, B.bv(0, 2)), "hvc at EL0"):
        m.unreachable("hvc at EL0 not modelled")
    pc = m.read_reg(PC)
    take_exception(
        m,
        ec=R.EC_HVC64,
        iss=imm16,
        preferred_return=B.bvadd(pc, B.bv(4, 64)),
        same_el=False,
        target_el=2,
    )


@sail_fn
def system_exceptions_svc(m, opcode: Term) -> None:
    """SVC: supervisor call, taken to EL1 (kernel syscall entry)."""
    imm16 = fld_int(opcode, 20, 5)
    el = m.read_reg(pstate("EL"))
    pc = m.read_reg(PC)
    ret = B.bvadd(pc, B.bv(4, 64))
    if m.branch(B.eq(el, B.bv(0, 2)), "svc at EL0"):
        # Lower-EL entry into the EL1 vector.
        take_exception(
            m, ec=R.EC_SVC64, iss=imm16, preferred_return=ret,
            same_el=False, target_el=1,
        )
        return
    if m.branch(B.eq(el, B.bv(1, 2)), "svc at EL1"):
        take_exception(
            m, ec=R.EC_SVC64, iss=imm16, preferred_return=ret, same_el=True
        )
        return
    m.unreachable("svc above EL1 not modelled (would route via HCR.TGE)")


# ---------------------------------------------------------------------------
# Top-level decoder.
# ---------------------------------------------------------------------------

_DECODE_TABLE: list[tuple[str, object]] = [
    ("xxx_100010_xxxxxxxxxxxxxxxxxxxxxxx", integer_arithmetic_addsub_immediate_decode),
    ("xxx_01011_xx0_xxxxxxxxxxxxxxxxxxxxx", integer_arithmetic_addsub_shiftedreg),
    ("xxx_01010_xxxxxxxxxxxxxxxxxxxxxxxx", integer_logical_shiftedreg),
    ("xxx_100100_xxxxxxxxxxxxxxxxxxxxxxx", integer_logical_immediate),
    ("xxx_100101_xxxxxxxxxxxxxxxxxxxxxxx", integer_ins_movewide),
    ("xxx_100110_xxxxxxxxxxxxxxxxxxxxxxx", integer_bitfield_ubfm_sbfm),
    ("xx1110_01_xxxxxxxxxxxxxxxxxxxxxxxx", memory_single_general_immediate_unsigned),
    ("xx1110_00_xx1_xxxxx_xxxx_10_xxxxxxxxxx", memory_single_general_register),
    ("xx1110_00_xx0_xxxxxxxxx_x1_xxxxxxxxxx", memory_single_general_imm9),
    ("xx1110_00_xx0_xxxxxxxxx_00_xxxxxxxxxx", memory_single_general_imm9),
    ("xx_101_0_010_x_xxxxxxxxxxxxxxxxxxxxxx", memory_pair_general),
    ("xx_101_0_011_x_xxxxxxxxxxxxxxxxxxxxxx", memory_pair_general),
    ("xx_101_0_001_x_xxxxxxxxxxxxxxxxxxxxxx", memory_pair_general),
    ("x_xx_10000_xxxxxxxxxxxxxxxxxxx_xxxxx", integer_pcrel_adr),
    ("x_00_11011_000_xxxxx_x_xxxxx_xxxxx_xxxxx", integer_arithmetic_mul_madd),
    ("x_011010_x_xxxxxxxxxxxxxxxxxxx_xxxxx", branch_conditional_compare),
    ("x_011011_x_xxxxxxxxxxxxxxxxxxx_xxxxx", branch_conditional_test),
    ("01010100_xxxxxxxxxxxxxxxxxxx_0_xxxx", branch_conditional_cond),
    ("x_00101_xxxxxxxxxxxxxxxxxxxxxxxxxx", branch_unconditional_immediate),
    ("1101011_00xx_11111_000000_xxxxx_00000", branch_unconditional_register),
    ("11010101000000110010_xxxx_xxx_11111", system_hint),
    ("1101010100_x_1_x_xxx_xxxx_xxxx_xxx_xxxxx", system_register_access),
    ("11010100_000_xxxxxxxxxxxxxxxx_000_10", system_exceptions_hvc),
    ("11010100_000_xxxxxxxxxxxxxxxx_000_01", system_exceptions_svc),
    ("11010110100_11111_000000_11111_00000", lambda m, op: exception_return(m)),
    ("x_10_11010110_00000_000000_xxxxx_xxxxx", integer_arithmetic_rbit),
    ("x_x_0_11010100_xxxxx_xxxx_0_x_xxxxx_xxxxx", integer_conditional_select),
    ("x_x_1_11010010_xxxxx_xxxx_x_0_xxxxx_0_xxxx", integer_conditional_compare),
    ("x_00_11010110_xxxxx_00001_x_xxxxx_xxxxx", integer_arithmetic_div),
]

#: ``_DECODE_TABLE`` compiled once: ``(mask, value, handler)`` in table order.
_COMPILED_DECODE: tuple[tuple[int, int, object], ...] = tuple(
    (*_pattern_mask(pattern), handler) for pattern, handler in _DECODE_TABLE
)


def _handler_for(word: int):
    """The handler of the first ``_DECODE_TABLE`` entry a concrete opcode
    matches, or None."""
    for mask, value, handler in _COMPILED_DECODE:
        if word & mask == value:
            return handler
    return None


class ArmModel(IsaModel):
    """The AArch64 model."""

    name = "armv8-a"
    pc_reg = PC
    instr_bytes = 4

    def _declare_registers(self, regfile: RegisterFile) -> None:
        R.declare_arm_registers(regfile)

    @sail_fn
    def execute(self, m: MachineInterface, opcode: Term) -> None:
        """``__DecodeA64``: dispatch on the encoding-class bit patterns.

        A concrete opcode takes the first matching entry by an integer
        test.  A symbolic one (symbolic immediates) walks the table with
        match terms, pruning the entries its concrete bits decide and
        branching on the rest, in table order.
        """
        if opcode.is_value():
            handler = _handler_for(opcode.value)
            if handler is not None:
                handler(m, opcode)
                return
        else:
            for mask, value, handler in _COMPILED_DECODE:
                cond = _mask_match(opcode, mask, value)
                if cond is TRUE:
                    handler(m, opcode)
                    return
                if cond is FALSE:
                    continue
                if m.branch(cond, f"decode {handler.__name__}"):
                    handler(m, opcode)
                    return
        m.unreachable(f"undecodable opcode {opcode!r}")


# ``sail_fn`` on a method receives ``self`` as its first arg; rebind so the
# machine still gets step accounting via the handlers themselves.
ArmModel.execute = ArmModel.execute.__wrapped__
