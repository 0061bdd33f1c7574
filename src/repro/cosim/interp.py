"""Fast direct interpreters: decode arms straight to Python int ops.

One class per architecture, dispatching on the *existing* decoder's arm
names (``arch/*/decode.py``) into handlers that execute the instruction
with plain Python integers — no SMT terms, no ITL, no symbolic pipeline.
This is the fast side of the co-simulation pair; the concrete ITL opsem
is the authoritative side.

The interpreter deliberately mirrors the mini-Sail models' *semantics*
(including the corners: X31-as-zero vs SP selection, AddWithCarry flag
computation, division-by-zero-yields-zero, alignment faults routed
through ``take_exception`` when SCTLR.A is set) while sharing none of
their *code* — sharing code would make the cross-check circular.

Domain errors mirror the concrete machine's:

- :class:`CosimDomainError` — the state left the comparable domain
  (partially-mapped access, unmapped register), like ``ModelError``;
- :class:`CosimUnsupported` — the encoding or state hits a path the
  models declare unreachable (reserved shift amounts, unknown system
  registers, AArch32 returns), so neither executor models it.

Defect injection (``defect=`` name from :data:`DEFECTS`) deliberately
miscomputes one datapath; the mutation tests assert the co-sim driver
finds and shrinks every one of them.
"""

from __future__ import annotations

from ..arch.arm import regs as AR
from ..arch.arm.model import decode_bit_masks
from ..arch.ppc import regs as PR
from ..arch.riscv.model import xreg
from ..itl.events import LabelRead, LabelWrite, Reg
from ..itl.machine import MachineState
from .archs import CosimArch

MASK64 = (1 << 64) - 1


class CosimDomainError(Exception):
    """The state is outside the comparable domain (mirrors ``ModelError``)."""


class CosimUnsupported(Exception):
    """The encoding/state reaches a model-unreachable path; skip the case."""


#: Injectable defects for the mutation tests: name -> description of the
#: *wrong* behaviour.  Each one is a single-datapath miscomputation that a
#: clean co-sim run must flag as a divergence.
DEFECTS = {
    "arm-adds-carry-inverted": "ADDS/SUBS computes the C flag inverted",
    "arm-ror-off-by-one": "ROR shifted-register rotates by amount+1",
    "arm-movk-clears": "MOVK zeroes the untouched lanes (acts like MOVZ)",
    "arm-ldp-swapped": "LDP writes the two loaded values to swapped registers",
    "arm-cbz-inverted": "CBZ/CBNZ branches on the inverted condition",
    "arm-str-addr-off": "STR (unsigned imm) stores 4 bytes below the address",
    "riscv-sra-logical": "SRA/SRAI/SRAW perform a logical shift",
    "riscv-jalr-keeps-bit0": "JALR fails to clear bit 0 of the target",
    "riscv-sltu-signed": "SLTU/SLTIU compare signed",
    "riscv-lh-zero-extends": "LH zero-extends instead of sign-extending",
    "ppc-subf-swapped": "SUBF computes RA - RB instead of RB - RA",
    "ppc-cmpi-unsigned": "CMPI compares unsigned (acts like CMPLI)",
    "ppc-bdnz-predec": "BC tests (and keeps) the pre-decrement CTR value",
    "ppc-lbz-sign-extends": "LBZ sign-extends instead of zero-extending",
}


def _sx(value: int, bits: int) -> int:
    """Two's-complement signed view of a ``bits``-wide field."""
    return value - (1 << bits) if value >> (bits - 1) else value


def _mask(bits: int) -> int:
    return (1 << bits) - 1


def _f(op: int, hi: int, lo: int) -> int:
    return (op >> lo) & _mask(hi - lo + 1)


class _BaseInterp:
    """State access shared by both interpreters (mirrors ConcreteMachine's
    unmapped-memory-as-MMIO behaviour so the label streams compare)."""

    def __init__(
        self,
        arch: CosimArch,
        state: MachineState,
        device=None,
        defect: str | None = None,
    ) -> None:
        if defect is not None and defect not in DEFECTS:
            raise KeyError(f"unknown defect {defect!r}")
        self.arch = arch
        self.state = state
        self.device = device or (lambda addr, n: 0)
        self.defect = defect
        self.labels: list = []
        self.instructions = 0

    # -- registers ---------------------------------------------------------

    def _rr(self, reg: Reg) -> int:
        value = self.state.read_reg(reg)
        if value is None:
            raise CosimDomainError(f"read of unmapped register {reg}")
        return int(value)

    def _wr(self, reg: Reg, value: int, width: int = 64) -> None:
        self.state.write_reg(reg, value & _mask(width))

    # -- memory ------------------------------------------------------------

    def _read_mem(self, addr: int, nbytes: int) -> int:
        addr &= MASK64
        if self.state.mem_mapped(addr, nbytes):
            return self.state.read_mem(addr, nbytes)
        if self.state.mem_unmapped(addr, nbytes):
            data = self.device(addr, nbytes) & _mask(8 * nbytes)
            self.labels.append(LabelRead(addr, data, nbytes))
            return data
        raise CosimDomainError(f"partially mapped read at 0x{addr:x}")

    def _write_mem(self, addr: int, data: int, nbytes: int) -> None:
        addr &= MASK64
        data &= _mask(8 * nbytes)
        if self.state.mem_mapped(addr, nbytes):
            self.state.write_mem(addr, data, nbytes)
        elif self.state.mem_unmapped(addr, nbytes):
            self.labels.append(LabelWrite(addr, data, nbytes))
        else:
            raise CosimDomainError(f"partially mapped write at 0x{addr:x}")

    # -- stepping ----------------------------------------------------------

    def step(self) -> None:
        """Fetch, decode (via the existing decoder's arm name), execute."""
        pc = self._rr(self.state.pc_reg)
        if not self.state.mem_mapped(pc, 4):
            raise CosimDomainError(f"instruction fetch at 0x{pc:x} unmapped")
        op = self.state.read_mem(pc, 4)
        arm = self.arch.decode.decode_arm(op)  # UnknownInstruction propagates
        handler = getattr(self, f"op_{arm}", None)
        if handler is None:
            raise CosimUnsupported(f"no handler for decode arm {arm!r}")
        handler(op, pc)
        self.instructions += 1


# ---------------------------------------------------------------------------
# AArch64
# ---------------------------------------------------------------------------


def _pst(field: str) -> Reg:
    return AR.pstate(field)


class ArmInterp(_BaseInterp):
    """Plain-integer AArch64 interpreter over the modelled subset."""

    # -- register-bank helpers --------------------------------------------

    def _x(self, n: int, size: int = 64) -> int:
        if n == 31:
            return 0
        return self._rr(AR.gpr(n)) & _mask(size)

    def _set_x(self, n: int, value: int, size: int = 64) -> None:
        if n == 31:
            return
        self._wr(AR.gpr(n), value & _mask(size))

    def _sp_reg(self) -> Reg:
        if self._rr(_pst("SP")) == 0:
            return AR.sp_for_el(0)
        el = self._rr(_pst("EL"))
        return AR.sp_for_el(el if el < 3 else 3)

    def _sp(self, size: int = 64) -> int:
        return self._rr(self._sp_reg()) & _mask(size)

    def _set_sp(self, value: int) -> None:
        self._wr(self._sp_reg(), value & MASK64)

    def _advance(self, pc: int) -> None:
        self._wr(self.state.pc_reg, (pc + 4) & MASK64)

    # -- flags -------------------------------------------------------------

    def _cond_holds(self, cond: int) -> bool:
        n = self._rr(_pst("N"))
        z = self._rr(_pst("Z"))
        c = self._rr(_pst("C"))
        v = self._rr(_pst("V"))
        base = cond >> 1
        if base == 0b000:
            result = z == 1
        elif base == 0b001:
            result = c == 1
        elif base == 0b010:
            result = n == 1
        elif base == 0b011:
            result = v == 1
        elif base == 0b100:
            result = c == 1 and z == 0
        elif base == 0b101:
            result = n == v
        elif base == 0b110:
            result = n == v and z == 0
        else:
            result = True
        if cond & 1 and cond != 0b1111:
            result = not result
        return result

    def _set_nzcv(self, nzcv: int) -> None:
        self._wr(_pst("N"), (nzcv >> 3) & 1, 1)
        self._wr(_pst("Z"), (nzcv >> 2) & 1, 1)
        self._wr(_pst("C"), (nzcv >> 1) & 1, 1)
        self._wr(_pst("V"), nzcv & 1, 1)

    def _add_with_carry(self, x: int, y: int, carry: int, w: int) -> tuple[int, int]:
        usum = x + y + carry
        result = usum & _mask(w)
        n = result >> (w - 1)
        z = 1 if result == 0 else 0
        c = 1 if usum >> w else 0
        ssum = _sx(x, w) + _sx(y, w) + carry
        v = 0 if -(1 << (w - 1)) <= ssum < (1 << (w - 1)) else 1
        if self.defect == "arm-adds-carry-inverted":
            c ^= 1
        return result, (n << 3) | (z << 2) | (c << 1) | v

    def _set_logical_flags(self, result: int, w: int) -> None:
        n = (result >> (w - 1)) & 1
        z = 1 if result & _mask(w) == 0 else 0
        self._set_nzcv((n << 3) | (z << 2))

    # -- memory path (alignment + exceptions) ------------------------------

    class _ExceptionTaken(Exception):
        pass

    def _check_alignment(self, addr: int, nbytes: int, iswrite: bool, pc: int) -> None:
        if nbytes == 1:
            return
        el = self._rr(_pst("EL"))
        sctlr = self._rr(Reg("SCTLR_EL2" if el == 2 else "SCTLR_EL1"))
        if (sctlr >> 1) & 1 and addr % nbytes:
            iss = AR.DFSC_ALIGNMENT | (int(iswrite) << 6)
            self._take_exception(
                ec=AR.EC_DATA_ABORT_SAME, iss=iss, preferred_return=pc,
                far=addr, same_el=True,
            )
            raise self._ExceptionTaken()

    def _mem_read(self, addr: int, nbytes: int, pc: int) -> int:
        self._check_alignment(addr, nbytes, iswrite=False, pc=pc)
        return self._read_mem(addr, nbytes)

    def _mem_write(self, addr: int, data: int, nbytes: int, pc: int) -> None:
        self._check_alignment(addr, nbytes, iswrite=True, pc=pc)
        self._write_mem(addr, data, nbytes)

    # -- exception entry / return ------------------------------------------

    def _take_exception(
        self, ec: int, iss: int, preferred_return: int,
        far: int | None = None, same_el: bool = False, target_el: int = 2,
    ) -> None:
        if same_el:
            el = self._rr(_pst("EL"))
            if el in (2, 1):
                target_el = el
            else:
                raise CosimUnsupported("exceptions to EL0/EL3 not modelled")
        suffix = f"EL{target_el}"
        self._wr(Reg(f"SPSR_{suffix}"), self._build_spsr())
        self._wr(Reg(f"ELR_{suffix}"), preferred_return)
        self._wr(Reg(f"ESR_{suffix}"), (ec << 26) | (1 << 25) | iss)
        if far is not None:
            self._wr(Reg(f"FAR_{suffix}"), far)
        if same_el:
            offset = (
                AR.VECTOR_CURRENT_SP0_SYNC
                if self._rr(_pst("SP")) == 0
                else AR.VECTOR_CURRENT_SPX_SYNC
            )
        else:
            offset = AR.VECTOR_LOWER_A64_SYNC
        self._wr(_pst("EL"), target_el, 2)
        self._wr(_pst("SP"), 1, 1)
        for flag in "DAIF":
            self._wr(_pst(flag), 1, 1)
        vbar = self._rr(Reg(f"VBAR_{suffix}"))
        self._wr(self.state.pc_reg, (vbar + offset) & MASK64)

    def _build_spsr(self) -> int:
        spsr = 0
        spsr |= self._rr(_pst("N")) << 31
        spsr |= self._rr(_pst("Z")) << 30
        spsr |= self._rr(_pst("C")) << 29
        spsr |= self._rr(_pst("V")) << 28
        spsr |= self._rr(_pst("D")) << 9
        spsr |= self._rr(_pst("A")) << 8
        spsr |= self._rr(_pst("I")) << 7
        spsr |= self._rr(_pst("F")) << 6
        spsr |= self._rr(_pst("EL")) << 2
        spsr |= self._rr(_pst("SP"))
        return spsr

    def _eret(self) -> None:
        el = self._rr(_pst("EL"))
        if el not in (2, 1, 3):
            raise CosimUnsupported("eret at EL0")
        suffix = f"EL{el}"
        spsr = self._rr(Reg(f"SPSR_{suffix}"))
        elr = self._rr(Reg(f"ELR_{suffix}"))
        if (spsr >> 4) & 1:
            raise CosimUnsupported("AArch32 exception return not modelled")
        target_el = (spsr >> 2) & 0b11
        if target_el > el:
            raise CosimUnsupported("illegal exception return (target above current)")
        if target_el < 2 and el == 2:
            hcr = self._rr(Reg("HCR_EL2"))
            if not (hcr >> 31) & 1:
                raise CosimUnsupported("AArch32 EL1 not modelled (HCR_EL2.RW = 0)")
        self._wr(_pst("N"), (spsr >> 31) & 1, 1)
        self._wr(_pst("Z"), (spsr >> 30) & 1, 1)
        self._wr(_pst("C"), (spsr >> 29) & 1, 1)
        self._wr(_pst("V"), (spsr >> 28) & 1, 1)
        self._wr(_pst("D"), (spsr >> 9) & 1, 1)
        self._wr(_pst("A"), (spsr >> 8) & 1, 1)
        self._wr(_pst("I"), (spsr >> 7) & 1, 1)
        self._wr(_pst("F"), (spsr >> 6) & 1, 1)
        self._wr(_pst("EL"), target_el, 2)
        self._wr(_pst("SP"), spsr & 1, 1)
        self._wr(self.state.pc_reg, elr & MASK64)

    # -- shifts -------------------------------------------------------------

    def _shift_reg(self, value: int, shift_type: int, amount: int, w: int) -> int:
        value &= _mask(w)
        if shift_type == 0b00:  # LSL
            return (value << amount) & _mask(w) if amount < w else 0
        if shift_type == 0b01:  # LSR
            return value >> amount if amount < w else 0
        if shift_type == 0b10:  # ASR
            return (_sx(value, w) >> amount) & _mask(w) if amount < w else (
                _mask(w) if value >> (w - 1) else 0
            )
        amount %= w  # ROR
        if self.defect == "arm-ror-off-by-one":
            amount = (amount + 1) % w
        if amount == 0:
            return value
        return ((value >> amount) | (value << (w - amount))) & _mask(w)

    # -- decode arms --------------------------------------------------------

    def op_addsub_imm(self, op: int, pc: int) -> None:
        sf, is_sub = _f(op, 31, 31), _f(op, 30, 30)
        setflags, shift = _f(op, 29, 29), _f(op, 23, 22)
        imm12, rn, rd = _f(op, 21, 10), _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        if shift not in (0b00, 0b01):
            raise CosimUnsupported("ADDG/SUBG (MTE) not modelled")
        imm = (imm12 << 12 if shift else imm12) & _mask(w)
        op1 = self._sp(w) if rn == 31 else self._x(rn, w)
        if is_sub:
            op2, carry = ~imm & _mask(w), 1
        else:
            op2, carry = imm, 0
        result, nzcv = self._add_with_carry(op1, op2, carry, w)
        if setflags:
            self._set_nzcv(nzcv)
        if rd == 31 and not setflags:
            self._set_sp(result)
        else:
            self._set_x(rd, result, w)
        self._advance(pc)

    def op_addsub_reg(self, op: int, pc: int) -> None:
        sf, is_sub = _f(op, 31, 31), _f(op, 30, 30)
        setflags, shift_type = _f(op, 29, 29), _f(op, 23, 22)
        rm, imm6 = _f(op, 20, 16), _f(op, 15, 10)
        rn, rd = _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        if shift_type == 0b11:
            raise CosimUnsupported("reserved shift for add/sub")
        if not sf and imm6 >= 32:
            raise CosimUnsupported("reserved shift amount")
        op1 = self._x(rn, w)
        op2 = self._shift_reg(self._x(rm, w), shift_type, imm6, w)
        if is_sub:
            op2, carry = ~op2 & _mask(w), 1
        else:
            carry = 0
        result, nzcv = self._add_with_carry(op1, op2, carry, w)
        if setflags:
            self._set_nzcv(nzcv)
        self._set_x(rd, result, w)
        self._advance(pc)

    def op_logical_reg(self, op: int, pc: int) -> None:
        sf, opc = _f(op, 31, 31), _f(op, 30, 29)
        shift_type, invert = _f(op, 23, 22), _f(op, 21, 21)
        rm, imm6 = _f(op, 20, 16), _f(op, 15, 10)
        rn, rd = _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        if not sf and imm6 >= 32:
            raise CosimUnsupported("reserved shift amount")
        op1 = self._x(rn, w)
        op2 = self._shift_reg(self._x(rm, w), shift_type, imm6, w)
        if invert:
            op2 = ~op2 & _mask(w)
        result, setflags = self._logical_op(opc, op1, op2, w)
        if setflags:
            self._set_logical_flags(result, w)
        self._set_x(rd, result, w)
        self._advance(pc)

    @staticmethod
    def _logical_op(opc: int, op1: int, op2: int, w: int) -> tuple[int, bool]:
        if opc == 0b00:
            return op1 & op2, False
        if opc == 0b01:
            return op1 | op2, False
        if opc == 0b10:
            return op1 ^ op2, False
        return op1 & op2, True

    def op_logical_imm(self, op: int, pc: int) -> None:
        sf, opc = _f(op, 31, 31), _f(op, 30, 29)
        immn, immr, imms = _f(op, 22, 22), _f(op, 21, 16), _f(op, 15, 10)
        rn, rd = _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        if not sf and immn:
            raise CosimUnsupported("reserved logical immediate (N=1, 32-bit)")
        try:
            imm = decode_bit_masks(immn, imms, immr, w)
        except ValueError as exc:
            raise CosimUnsupported(str(exc)) from exc
        op1 = self._x(rn, w)
        result, setflags = self._logical_op(opc, op1, imm, w)
        if setflags:
            self._set_logical_flags(result, w)
        if rd == 31 and not setflags:
            self._set_sp(result & _mask(w))
        else:
            self._set_x(rd, result, w)
        self._advance(pc)

    def op_movewide(self, op: int, pc: int) -> None:
        sf, opc = _f(op, 31, 31), _f(op, 30, 29)
        hw, imm16, rd = _f(op, 22, 21), _f(op, 20, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        if not sf and hw >= 2:
            raise CosimUnsupported("reserved movewide shift")
        pos = hw * 16
        if opc == 0b00:  # MOVN
            value = ~(imm16 << pos) & _mask(w)
        elif opc == 0b10:  # MOVZ
            value = imm16 << pos
        elif opc == 0b11:  # MOVK
            old = self._x(rd, w)
            if self.defect == "arm-movk-clears":
                old = 0
            value = (old & ~(0xFFFF << pos)) | (imm16 << pos)
        else:
            raise CosimUnsupported("reserved movewide opc")
        self._set_x(rd, value, w)
        self._advance(pc)

    def op_bitfield(self, op: int, pc: int) -> None:
        sf, opc = _f(op, 31, 31), _f(op, 30, 29)
        immr, imms = _f(op, 21, 16), _f(op, 15, 10)
        rn, rd = _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        if opc not in (0b00, 0b10):
            raise CosimUnsupported("BFM not modelled")
        signed = opc == 0b00
        src = self._x(rn, w)
        if imms >= immr:
            part = (src >> immr) & _mask(imms - immr + 1)
            if signed:
                part = _sx(part, imms - immr + 1)
            result = part & _mask(w)
        else:
            part = src & _mask(imms + 1)
            shift = (w - immr) % w
            result = (part << shift) & _mask(w)
            if signed:
                width = imms + 1 + shift
                result = _sx(result & _mask(width), width) & _mask(w)
        self._set_x(rd, result, w)
        self._advance(pc)

    def op_csel(self, op: int, pc: int) -> None:
        sf, neg = _f(op, 31, 31), _f(op, 30, 30)
        rm, cond = _f(op, 20, 16), _f(op, 15, 12)
        o2, rn, rd = _f(op, 10, 10), _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        holds = self._cond_holds(cond)
        val_true = self._x(rn, w)
        val_false = self._x(rm, w)
        if neg and o2:
            val_false = -val_false & _mask(w)
        elif neg:
            val_false = ~val_false & _mask(w)
        elif o2:
            val_false = (val_false + 1) & _mask(w)
        self._set_x(rd, val_true if holds else val_false, w)
        self._advance(pc)

    def op_ccmp(self, op: int, pc: int) -> None:
        sf, is_ccmp = _f(op, 31, 31), _f(op, 30, 30)
        imm_form, cond = _f(op, 11, 11), _f(op, 15, 12)
        rn, nzcv_imm = _f(op, 9, 5), _f(op, 3, 0)
        w = 64 if sf else 32
        holds = self._cond_holds(cond)
        op1 = self._x(rn, w)
        op2 = _f(op, 20, 16) if imm_form else self._x(_f(op, 20, 16), w)
        if is_ccmp:
            op2, carry = ~op2 & _mask(w), 1
        else:
            carry = 0
        _, computed = self._add_with_carry(op1, op2, carry, w)
        self._set_nzcv(computed if holds else nzcv_imm)
        self._advance(pc)

    def op_div(self, op: int, pc: int) -> None:
        sf, rm = _f(op, 31, 31), _f(op, 20, 16)
        is_signed, rn, rd = _f(op, 10, 10), _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        dividend, divisor = self._x(rn, w), self._x(rm, w)
        if divisor == 0:
            result = 0
        elif is_signed:
            sn, sm = _sx(dividend, w), _sx(divisor, w)
            quotient = abs(sn) // abs(sm)
            if (sn < 0) != (sm < 0):
                quotient = -quotient
            result = quotient & _mask(w)
        else:
            result = dividend // divisor
        self._set_x(rd, result, w)
        self._advance(pc)

    def op_rbit(self, op: int, pc: int) -> None:
        sf, rn, rd = _f(op, 31, 31), _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        src = self._x(rn, w)
        result = 0
        for i in range(w):
            result = (result << 1) | ((src >> i) & 1)
        self._set_x(rd, result, w)
        self._advance(pc)

    # -- loads and stores ---------------------------------------------------

    def _ldst_base(self, rn: int) -> int:
        return self._sp() if rn == 31 else self._x(rn, 64)

    def _ldst_common(self, opc: int, size: int, addr: int, rt: int, pc: int) -> bool:
        """Shared ldst datapath; returns False when an exception redirected."""
        nbytes = 1 << size
        datasize = 8 * nbytes
        try:
            if opc == 0b00:  # STR
                data = self._x(rt, min(datasize, 64))
                if self.defect == "arm-str-addr-off" and size == 0b10:
                    addr = (addr - 4) & MASK64
                self._mem_write(addr, data & _mask(datasize), nbytes, pc)
            elif opc == 0b01:  # LDR (zero-extending)
                data = self._mem_read(addr, nbytes, pc)
                self._set_x(rt, data, 64)
            elif opc == 0b10 and size < 0b11:  # LDRS* to 64-bit
                data = self._mem_read(addr, nbytes, pc)
                self._set_x(rt, _sx(data, datasize) & MASK64, 64)
            else:
                raise CosimUnsupported(
                    f"load/store opc {opc:#04b} size {size} not modelled"
                )
        except self._ExceptionTaken:
            return False
        return True

    def op_ldst_imm(self, op: int, pc: int) -> None:
        size, opc = _f(op, 31, 30), _f(op, 23, 22)
        imm12, rn, rt = _f(op, 21, 10), _f(op, 9, 5), _f(op, 4, 0)
        addr = (self._ldst_base(rn) + (imm12 << size)) & MASK64
        if self._ldst_common(opc, size, addr, rt, pc):
            self._advance(pc)

    def op_ldst_reg(self, op: int, pc: int) -> None:
        size, opc = _f(op, 31, 30), _f(op, 23, 22)
        rm, option, s_bit = _f(op, 20, 16), _f(op, 15, 13), _f(op, 12, 12)
        rn, rt = _f(op, 9, 5), _f(op, 4, 0)
        shift = size if s_bit else 0
        if option == 0b011:  # LSL (UXTX)
            offset = self._x(rm, 64)
        elif option == 0b010:  # UXTW
            offset = self._x(rm, 32)
        elif option == 0b110:  # SXTW
            offset = _sx(self._x(rm, 32), 32) & MASK64
        else:
            raise CosimUnsupported(f"ldst register option {option:#05b} not modelled")
        offset = (offset << shift) & MASK64
        addr = (self._ldst_base(rn) + offset) & MASK64
        if self._ldst_common(opc, size, addr, rt, pc):
            self._advance(pc)

    def op_ldst_imm9(self, op: int, pc: int) -> None:
        size, opc = _f(op, 31, 30), _f(op, 23, 22)
        imm9, mode = _f(op, 20, 12), _f(op, 11, 10)
        rn, rt = _f(op, 9, 5), _f(op, 4, 0)
        nbytes = 1 << size
        offset = _sx(imm9, 9)
        base = self._ldst_base(rn)
        addr = base if mode == 0b01 else (base + offset) & MASK64
        wback = mode in (0b01, 0b11)
        try:
            if opc == 0b00:
                data = self._x(rt, min(8 * nbytes, 64))
                self._mem_write(addr, data & _mask(8 * nbytes), nbytes, pc)
            elif opc == 0b01:
                data = self._mem_read(addr, nbytes, pc)
                self._set_x(rt, data, 64)
            else:
                raise CosimUnsupported(f"imm9 load/store opc {opc:#04b} not modelled")
        except self._ExceptionTaken:
            return
        if wback:
            new_base = (base + offset) & MASK64
            if rn == 31:
                self._set_sp(new_base)
            else:
                self._set_x(rn, new_base, 64)
        self._advance(pc)

    def op_ldst_pair(self, op: int, pc: int) -> None:
        opc, mode = _f(op, 31, 30), _f(op, 24, 23)
        is_load, imm7 = _f(op, 22, 22), _f(op, 21, 15)
        rt2, rn, rt = _f(op, 14, 10), _f(op, 9, 5), _f(op, 4, 0)
        if opc in (0b01, 0b11):
            raise CosimUnsupported("LDPSW / SIMD pair not modelled")
        datasize = 64 if opc == 0b10 else 32
        nbytes = datasize // 8
        offset = _sx(imm7, 7) * nbytes
        base = self._ldst_base(rn)
        addr = base if mode == 0b01 else (base + offset) & MASK64
        addr2 = (addr + nbytes) & MASK64
        try:
            if is_load:
                data1 = self._mem_read(addr, nbytes, pc)
                data2 = self._mem_read(addr2, nbytes, pc)
                if self.defect == "arm-ldp-swapped":
                    data1, data2 = data2, data1
                self._set_x(rt, data1, 64)
                self._set_x(rt2, data2, 64)
            else:
                self._mem_write(addr, self._x(rt, datasize), nbytes, pc)
                self._mem_write(addr2, self._x(rt2, datasize), nbytes, pc)
        except self._ExceptionTaken:
            return
        if mode in (0b01, 0b11):
            new_base = (base + offset) & MASK64
            if rn == 31:
                self._set_sp(new_base)
            else:
                self._set_x(rn, new_base, 64)
        self._advance(pc)

    # -- pc-relative, multiply ---------------------------------------------

    def op_adr(self, op: int, pc: int) -> None:
        is_page, immlo = _f(op, 31, 31), _f(op, 30, 29)
        immhi, rd = _f(op, 23, 5), _f(op, 4, 0)
        imm = _sx((immhi << 2) | immlo, 21)
        if is_page:
            target = ((pc & ~0xFFF) + (imm << 12)) & MASK64
        else:
            target = (pc + imm) & MASK64
        self._set_x(rd, target, 64)
        self._advance(pc)

    def op_madd(self, op: int, pc: int) -> None:
        sf, rm = _f(op, 31, 31), _f(op, 20, 16)
        is_sub, ra = _f(op, 15, 15), _f(op, 14, 10)
        rn, rd = _f(op, 9, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        product = self._x(rn, w) * self._x(rm, w)
        acc = self._x(ra, w)
        result = acc - product if is_sub else acc + product
        self._set_x(rd, result & _mask(w), w)
        self._advance(pc)

    # -- branches -----------------------------------------------------------

    def op_cbz(self, op: int, pc: int) -> None:
        sf, is_cbnz = _f(op, 31, 31), _f(op, 24, 24)
        imm19, rt = _f(op, 23, 5), _f(op, 4, 0)
        w = 64 if sf else 32
        value = self._x(rt, w)
        taken = (value != 0) if is_cbnz else (value == 0)
        if self.defect == "arm-cbz-inverted":
            taken = not taken
        if taken:
            self._wr(self.state.pc_reg, (pc + _sx(imm19, 19) * 4) & MASK64)
        else:
            self._advance(pc)

    def op_tbz(self, op: int, pc: int) -> None:
        b5, is_tbnz = _f(op, 31, 31), _f(op, 24, 24)
        b40, imm14, rt = _f(op, 23, 19), _f(op, 18, 5), _f(op, 4, 0)
        bitpos = (b5 << 5) | b40
        w = 64 if b5 else 32
        bit = (self._x(rt, w) >> bitpos) & 1
        taken = bit == (1 if is_tbnz else 0)
        if taken:
            self._wr(self.state.pc_reg, (pc + _sx(imm14, 14) * 4) & MASK64)
        else:
            self._advance(pc)

    def op_bcond(self, op: int, pc: int) -> None:
        imm19, cond = _f(op, 23, 5), _f(op, 3, 0)
        if self._cond_holds(cond):
            self._wr(self.state.pc_reg, (pc + _sx(imm19, 19) * 4) & MASK64)
        else:
            self._advance(pc)

    def op_b_bl(self, op: int, pc: int) -> None:
        is_bl, imm26 = _f(op, 31, 31), _f(op, 25, 0)
        if is_bl:
            self._set_x(30, (pc + 4) & MASK64, 64)
        self._wr(self.state.pc_reg, (pc + _sx(imm26, 26) * 4) & MASK64)

    def op_br_blr_ret(self, op: int, pc: int) -> None:
        opc, rn = _f(op, 24, 21), _f(op, 9, 5)
        if opc == 0b0100:  # ERET (decoder only accepts rn == 31 here)
            self._eret()
            return
        target = self._x(rn, 64)
        if opc == 0b0001:  # BLR
            self._set_x(30, (pc + 4) & MASK64, 64)
        elif opc not in (0b0000, 0b0010):  # BR, RET
            raise CosimUnsupported(f"branch-register opc {opc:#06b} not modelled")
        self._wr(self.state.pc_reg, target)

    # -- system -------------------------------------------------------------

    def op_hint(self, op: int, pc: int) -> None:
        self._advance(pc)

    def op_sysreg(self, op: int, pc: int) -> None:
        is_read = _f(op, 21, 21)
        enc = (
            2 + _f(op, 19, 19), _f(op, 18, 16), _f(op, 15, 12),
            _f(op, 11, 8), _f(op, 7, 5),
        )
        rt = _f(op, 4, 0)
        name = AR.ENCODING_TO_SYSREG.get(enc)
        if name is None:
            raise CosimUnsupported(f"unknown system register encoding {enc}")
        reg = Reg(name)
        if is_read:
            self._set_x(rt, self._rr(reg), 64)
        else:
            self._wr(reg, self._x(rt, 64))
        self._advance(pc)

    def op_hvc(self, op: int, pc: int) -> None:
        """HVC and SVC share a decode arm (low bits distinguish them)."""
        imm16 = _f(op, 20, 5)
        low = _f(op, 4, 0)
        el = self._rr(_pst("EL"))
        if low == 0b00010:  # HVC
            if el == 0:
                raise CosimUnsupported("hvc at EL0 not modelled")
            self._take_exception(
                ec=AR.EC_HVC64, iss=imm16, preferred_return=(pc + 4) & MASK64,
                same_el=False, target_el=2,
            )
        elif low == 0b00001:  # SVC
            if el == 0:
                self._take_exception(
                    ec=AR.EC_SVC64, iss=imm16,
                    preferred_return=(pc + 4) & MASK64,
                    same_el=False, target_el=1,
                )
            elif el == 1:
                self._take_exception(
                    ec=AR.EC_SVC64, iss=imm16,
                    preferred_return=(pc + 4) & MASK64, same_el=True,
                )
            else:
                raise CosimUnsupported("svc above EL1 not modelled")
        else:
            raise CosimUnsupported(f"exception-generating low bits {low:#07b}")


# ---------------------------------------------------------------------------
# RV64I
# ---------------------------------------------------------------------------

_RISCV_PC = Reg("PC")

_MSTATUS_MIE = 3
_MSTATUS_MPIE = 7


class RiscvInterp(_BaseInterp):
    """Plain-integer RV64I interpreter over the modelled subset."""

    def _x(self, n: int) -> int:
        if n == 0:
            return 0
        return self._rr(xreg(n))

    def _set_x(self, n: int, value: int) -> None:
        if n == 0:
            return
        self._wr(xreg(n), value & MASK64)

    def _advance(self, pc: int) -> None:
        self._wr(_RISCV_PC, (pc + 4) & MASK64)

    # -- immediates ---------------------------------------------------------

    @staticmethod
    def _imm_i(op: int) -> int:
        return _sx(_f(op, 31, 20), 12)

    @staticmethod
    def _imm_s(op: int) -> int:
        return _sx((_f(op, 31, 25) << 5) | _f(op, 11, 7), 12)

    @staticmethod
    def _imm_b(op: int) -> int:
        raw = (
            (_f(op, 31, 31) << 12) | (_f(op, 7, 7) << 11)
            | (_f(op, 30, 25) << 5) | (_f(op, 11, 8) << 1)
        )
        return _sx(raw, 13)

    @staticmethod
    def _imm_u(op: int) -> int:
        return _sx(_f(op, 31, 12) << 12, 32)

    @staticmethod
    def _imm_j(op: int) -> int:
        raw = (
            (_f(op, 31, 31) << 20) | (_f(op, 19, 12) << 12)
            | (_f(op, 20, 20) << 11) | (_f(op, 30, 21) << 1)
        )
        return _sx(raw, 21)

    # -- ALU ----------------------------------------------------------------

    def _alu(self, funct3: int, alt: bool, a: int, b: int, w: int) -> int:
        a &= _mask(w)
        b_m = b & _mask(w)
        if funct3 == 0b000:
            return (a - b_m if alt else a + b_m) & _mask(w)
        if funct3 == 0b001:
            return (a << (b_m & (w - 1))) & _mask(w)
        if funct3 == 0b010:
            return 1 if _sx(a, w) < _sx(b_m, w) else 0
        if funct3 == 0b011:
            if self.defect == "riscv-sltu-signed":
                return 1 if _sx(a, w) < _sx(b_m, w) else 0
            return 1 if a < b_m else 0
        if funct3 == 0b100:
            return a ^ b_m
        if funct3 == 0b101:
            sh = b_m & (w - 1)
            if alt and self.defect != "riscv-sra-logical":
                return (_sx(a, w) >> sh) & _mask(w)
            return a >> sh
        if funct3 == 0b110:
            return a | b_m
        return a & b_m

    # -- decode arms --------------------------------------------------------

    def op_lui(self, op: int, pc: int) -> None:
        self._set_x(_f(op, 11, 7), self._imm_u(op) & MASK64)
        self._advance(pc)

    def op_auipc(self, op: int, pc: int) -> None:
        self._set_x(_f(op, 11, 7), (pc + self._imm_u(op)) & MASK64)
        self._advance(pc)

    def op_jal(self, op: int, pc: int) -> None:
        self._set_x(_f(op, 11, 7), (pc + 4) & MASK64)
        self._wr(_RISCV_PC, (pc + self._imm_j(op)) & MASK64)

    def op_jalr(self, op: int, pc: int) -> None:
        rd, rs1 = _f(op, 11, 7), _f(op, 19, 15)
        target = (self._x(rs1) + self._imm_i(op)) & MASK64
        if self.defect != "riscv-jalr-keeps-bit0":
            target &= ~1
        self._set_x(rd, (pc + 4) & MASK64)
        self._wr(_RISCV_PC, target)

    def op_branch(self, op: int, pc: int) -> None:
        funct3 = _f(op, 14, 12)
        a, b = self._x(_f(op, 19, 15)), self._x(_f(op, 24, 20))
        if funct3 == 0b000:
            taken = a == b
        elif funct3 == 0b001:
            taken = a != b
        elif funct3 == 0b100:
            taken = _sx(a, 64) < _sx(b, 64)
        elif funct3 == 0b101:
            taken = _sx(a, 64) >= _sx(b, 64)
        elif funct3 == 0b110:
            taken = a < b
        elif funct3 == 0b111:
            taken = a >= b
        else:
            raise CosimUnsupported(f"reserved branch funct3 {funct3:#05b}")
        if taken:
            self._wr(_RISCV_PC, (pc + self._imm_b(op)) & MASK64)
        else:
            self._advance(pc)

    def op_load(self, op: int, pc: int) -> None:
        funct3, rd, rs1 = _f(op, 14, 12), _f(op, 11, 7), _f(op, 19, 15)
        if funct3 == 0b111:
            raise CosimUnsupported("reserved load funct3")
        width = funct3 & 0b011
        unsigned = bool(funct3 & 0b100)
        nbytes = 1 << width
        addr = (self._x(rs1) + self._imm_i(op)) & MASK64
        data = self._read_mem(addr, nbytes)
        if funct3 == 0b001 and self.defect == "riscv-lh-zero-extends":
            unsigned = True
        value = data if unsigned else _sx(data, 8 * nbytes) & MASK64
        self._set_x(rd, value)
        self._advance(pc)

    def op_store(self, op: int, pc: int) -> None:
        funct3, rs1, rs2 = _f(op, 14, 12), _f(op, 19, 15), _f(op, 24, 20)
        if funct3 > 0b011:
            raise CosimUnsupported("reserved store funct3")
        nbytes = 1 << (funct3 & 0b011)
        addr = (self._x(rs1) + self._imm_s(op)) & MASK64
        self._write_mem(addr, self._x(rs2), nbytes)
        self._advance(pc)

    def _op_imm(self, op: int, pc: int, w: int) -> None:
        funct3, rd, rs1 = _f(op, 14, 12), _f(op, 11, 7), _f(op, 19, 15)
        a = self._x(rs1)
        imm = self._imm_i(op)
        alt = False
        if funct3 == 0b101:
            alt = bool(_f(op, 30, 30))
        result = self._alu(funct3, alt, a, imm, w)
        if w == 32:
            result = _sx(result, 32) & MASK64
        self._set_x(rd, result)
        self._advance(pc)

    def op_op_imm(self, op: int, pc: int) -> None:
        self._op_imm(op, pc, 64)

    def op_op_imm32(self, op: int, pc: int) -> None:
        self._op_imm(op, pc, 32)

    def _op_reg(self, op: int, pc: int, w: int) -> None:
        funct3, funct7 = _f(op, 14, 12), _f(op, 31, 25)
        rd, rs1, rs2 = _f(op, 11, 7), _f(op, 19, 15), _f(op, 24, 20)
        if funct7 not in (0b0000000, 0b0100000):
            raise CosimUnsupported(f"funct7 {funct7:#09b} not modelled")
        alt = funct7 == 0b0100000
        result = self._alu(funct3, alt, self._x(rs1), self._x(rs2), w)
        if w == 32:
            result = _sx(result, 32) & MASK64
        self._set_x(rd, result)
        self._advance(pc)

    def op_op(self, op: int, pc: int) -> None:
        self._op_reg(op, pc, 64)

    def op_op32(self, op: int, pc: int) -> None:
        self._op_reg(op, pc, 32)

    def op_fence(self, op: int, pc: int) -> None:
        self._advance(pc)

    # -- traps and CSRs -----------------------------------------------------

    def _take_trap(self, cause: int, pc: int, tval: int = 0) -> None:
        self._wr(Reg("mepc"), pc)
        self._wr(Reg("mcause"), cause)
        self._wr(Reg("mtval"), tval)
        status = self._rr(Reg("mstatus"))
        mie = (status >> _MSTATUS_MIE) & 1
        status = (status & ~(1 << _MSTATUS_MPIE)) | (mie << _MSTATUS_MPIE)
        status &= ~(1 << _MSTATUS_MIE)
        self._wr(Reg("mstatus"), status)
        tvec = self._rr(Reg("mtvec"))
        self._wr(_RISCV_PC, tvec & ~0b11 & MASK64)

    def _mret(self) -> None:
        status = self._rr(Reg("mstatus"))
        mpie = (status >> _MSTATUS_MPIE) & 1
        status = (status & ~(1 << _MSTATUS_MIE)) | (mpie << _MSTATUS_MIE)
        status |= 1 << _MSTATUS_MPIE
        self._wr(Reg("mstatus"), status)
        self._wr(_RISCV_PC, self._rr(Reg("mepc")))

    def _csr(self, op: int, pc: int) -> None:
        from ..arch.riscv.model import ADDRESS_TO_CSR

        funct3, rd, rs1 = _f(op, 14, 12), _f(op, 11, 7), _f(op, 19, 15)
        addr = _f(op, 31, 20)
        name = ADDRESS_TO_CSR.get(addr)
        if name is None:
            raise CosimUnsupported(f"CSR {addr:#05x} not modelled")
        csr = Reg(name)
        imm_form = bool(funct3 & 0b100)
        operand = rs1 if imm_form else self._x(rs1)
        kind = funct3 & 0b011
        old = None
        if not (kind == 0b01 and rd == 0):
            old = self._rr(csr)
        if kind == 0b01:  # CSRRW
            self._wr(csr, operand)
        elif rs1 != 0:
            if kind == 0b10:  # CSRRS
                self._wr(csr, old | operand)
            else:  # CSRRC
                self._wr(csr, old & ~operand)
        if old is not None:
            self._set_x(rd, old)
        self._advance(pc)

    def op_system(self, op: int, pc: int) -> None:
        funct3 = _f(op, 14, 12)
        if funct3 != 0:
            self._csr(op, pc)
            return
        funct12 = _f(op, 31, 20)
        if funct12 == 0b000000000000:  # ECALL
            self._take_trap(11, pc)
        elif funct12 == 0b000000000001:  # EBREAK
            self._take_trap(3, pc, tval=pc)
        elif funct12 == 0b001100000010:  # MRET
            self._mret()
        elif funct12 == 0b000100000101:  # WFI
            self._advance(pc)
        else:
            raise CosimUnsupported(f"SYSTEM funct12 {funct12:#014b} not modelled")


# ---------------------------------------------------------------------------
# OpenPOWER (ppc64 fixed-point subset)
# ---------------------------------------------------------------------------

_PPC_PC = Reg("PC")
_PPC_CTR = Reg("CTR")
_PPC_LR = Reg("LR")
_PPC_XER = Reg("XER")

#: SPR instruction-field value -> register (swapped-half encoding).
_PPC_SPRS = {32: _PPC_XER, 256: _PPC_LR, 288: _PPC_CTR}


class PpcInterp(_BaseInterp):
    """Plain-integer OpenPOWER interpreter over the modelled subset."""

    def _gpr(self, n: int) -> int:
        return self._rr(PR.gpr(n))

    def _set_gpr(self, n: int, value: int) -> None:
        self._wr(PR.gpr(n), value & MASK64)

    def _ra_or_zero(self, n: int) -> int:
        """(RA|0): r0 reads as zero in addressing/addi contexts."""
        return 0 if n == 0 else self._gpr(n)

    def _advance(self, pc: int) -> None:
        self._wr(_PPC_PC, (pc + 4) & MASK64)

    # -- condition register --------------------------------------------------

    def _so(self) -> int:
        return (self._rr(_PPC_XER) >> 31) & 1

    def _write_cr(self, bf: int, lt: bool, gt: bool, eq: bool) -> None:
        value = (int(lt) << 3) | (int(gt) << 2) | (int(eq) << 1) | self._so()
        self._wr(PR.cr_field(bf), value, 4)

    def _record_cr0(self, result: int) -> None:
        signed = _sx(result & MASK64, 64)
        self._write_cr(0, signed < 0, signed > 0, signed == 0)

    # -- decode arms: D-form arithmetic / logical -----------------------------

    def _addi(self, op: int, pc: int, shifted: bool) -> None:
        rt, ra = _f(op, 25, 21), _f(op, 20, 16)
        imm = _sx(_f(op, 15, 0), 16)
        if shifted:
            imm <<= 16
        self._set_gpr(rt, self._ra_or_zero(ra) + imm)
        self._advance(pc)

    def op_addi(self, op: int, pc: int) -> None:
        self._addi(op, pc, shifted=False)

    def op_addis(self, op: int, pc: int) -> None:
        self._addi(op, pc, shifted=True)

    def _logic_imm(self, op: int, pc: int, combine, shifted: bool, record: bool) -> None:
        rs, ra = _f(op, 25, 21), _f(op, 20, 16)
        imm = _f(op, 15, 0) << 16 if shifted else _f(op, 15, 0)
        result = combine(self._gpr(rs), imm) & MASK64
        self._set_gpr(ra, result)
        if record:
            self._record_cr0(result)
        self._advance(pc)

    def op_ori(self, op: int, pc: int) -> None:
        self._logic_imm(op, pc, int.__or__, shifted=False, record=False)

    def op_oris(self, op: int, pc: int) -> None:
        self._logic_imm(op, pc, int.__or__, shifted=True, record=False)

    def op_xori(self, op: int, pc: int) -> None:
        self._logic_imm(op, pc, int.__xor__, shifted=False, record=False)

    def op_xoris(self, op: int, pc: int) -> None:
        self._logic_imm(op, pc, int.__xor__, shifted=True, record=False)

    def op_andi(self, op: int, pc: int) -> None:
        self._logic_imm(op, pc, int.__and__, shifted=False, record=True)

    def op_andis(self, op: int, pc: int) -> None:
        self._logic_imm(op, pc, int.__and__, shifted=True, record=True)

    # -- compares -------------------------------------------------------------

    def _compare(self, op: int, pc: int, b_value: int, unsigned: bool) -> None:
        bf, ell = _f(op, 25, 23), _f(op, 21, 21)
        a_value = self._gpr(_f(op, 20, 16))
        w = 64 if ell else 32
        if unsigned:
            a, b = a_value & _mask(w), b_value & _mask(w)
        else:
            a, b = _sx(a_value & _mask(w), w), _sx(b_value & _mask(w), w)
        self._write_cr(bf, a < b, a > b, a == b)
        self._advance(pc)

    def op_cmpi(self, op: int, pc: int) -> None:
        unsigned = self.defect == "ppc-cmpi-unsigned"
        imm = _f(op, 15, 0) if unsigned else _sx(_f(op, 15, 0), 16)
        self._compare(op, pc, imm, unsigned)

    def op_cmpli(self, op: int, pc: int) -> None:
        self._compare(op, pc, _f(op, 15, 0), unsigned=True)

    def op_cmp(self, op: int, pc: int) -> None:
        self._compare(op, pc, self._gpr(_f(op, 15, 11)), unsigned=False)

    def op_cmpl(self, op: int, pc: int) -> None:
        self._compare(op, pc, self._gpr(_f(op, 15, 11)), unsigned=True)

    # -- loads and stores ------------------------------------------------------

    def _ea(self, op: int, ds_form: bool) -> int:
        ra = _f(op, 20, 16)
        if ds_form:
            disp = _sx(_f(op, 15, 2), 14) << 2
        else:
            disp = _sx(_f(op, 15, 0), 16)
        return (self._ra_or_zero(ra) + disp) & MASK64

    def _load(self, op: int, pc: int, nbytes: int, ds_form: bool = False) -> None:
        data = self._read_mem(self._ea(op, ds_form), nbytes)
        if nbytes == 1 and self.defect == "ppc-lbz-sign-extends":
            data = _sx(data, 8) & MASK64
        self._set_gpr(_f(op, 25, 21), data)
        self._advance(pc)

    def _store(self, op: int, pc: int, nbytes: int, ds_form: bool = False) -> None:
        data = self._gpr(_f(op, 25, 21)) & _mask(8 * nbytes)
        self._write_mem(self._ea(op, ds_form), data, nbytes)
        self._advance(pc)

    def op_lwz(self, op: int, pc: int) -> None:
        self._load(op, pc, 4)

    def op_lbz(self, op: int, pc: int) -> None:
        self._load(op, pc, 1)

    def op_stw(self, op: int, pc: int) -> None:
        self._store(op, pc, 4)

    def op_stb(self, op: int, pc: int) -> None:
        self._store(op, pc, 1)

    def op_ld(self, op: int, pc: int) -> None:
        self._load(op, pc, 8, ds_form=True)

    def op_std(self, op: int, pc: int) -> None:
        self._store(op, pc, 8, ds_form=True)

    # -- branches --------------------------------------------------------------

    def _branch_taken(self, op: int) -> bool:
        """Evaluate BO/BI, decrementing CTR when BO asks (test reads the
        *new* value, per the Power ISA's 'decrement then test')."""
        bo, bi = _f(op, 25, 21), _f(op, 20, 16)
        taken = True
        if not bo & 0b00100:  # decrement CTR, test against ctr_sense
            old = self._rr(_PPC_CTR)
            ctr = (old - 1) & MASK64
            if self.defect == "ppc-bdnz-predec":
                ctr = old
            self._wr(_PPC_CTR, ctr)
            taken = (ctr == 0) == bool(bo & 0b00010)
        if not bo & 0b10000:  # test the CR bit against cond_sense
            crf = self._rr(Reg(f"CR{bi >> 2}"))
            bit = (crf >> (3 - (bi & 3))) & 1
            taken = taken and bit == ((bo >> 3) & 1)
        return taken

    def op_b(self, op: int, pc: int) -> None:
        if _f(op, 0, 0):
            self._wr(_PPC_LR, (pc + 4) & MASK64)
        target = (pc + (_sx(_f(op, 25, 2), 24) << 2)) & MASK64
        self._wr(_PPC_PC, target)

    def _cond_branch(self, op: int, pc: int, target: int) -> None:
        """Shared bc/bclr/bcctr tail: LK then condition then redirect.

        ``target`` must be computed by the caller *before* this runs — the
        LK write clobbers LR, and bclr targets the old value.
        """
        taken = self._branch_taken(op)
        if _f(op, 0, 0):
            self._wr(_PPC_LR, (pc + 4) & MASK64)
        if taken:
            self._wr(_PPC_PC, target)
        else:
            self._advance(pc)

    def op_bc(self, op: int, pc: int) -> None:
        target = (pc + (_sx(_f(op, 15, 2), 14) << 2)) & MASK64
        self._cond_branch(op, pc, target)

    def op_bclr(self, op: int, pc: int) -> None:
        target = self._rr(_PPC_LR) & ~0b11 & MASK64
        self._cond_branch(op, pc, target)

    def op_bcctr(self, op: int, pc: int) -> None:
        target = self._rr(_PPC_CTR) & ~0b11 & MASK64
        self._cond_branch(op, pc, target)

    # -- major 31: X / XO forms ------------------------------------------------

    def op_add(self, op: int, pc: int) -> None:
        a, b = self._gpr(_f(op, 20, 16)), self._gpr(_f(op, 15, 11))
        self._set_gpr(_f(op, 25, 21), a + b)
        self._advance(pc)

    def op_subf(self, op: int, pc: int) -> None:
        a, b = self._gpr(_f(op, 20, 16)), self._gpr(_f(op, 15, 11))
        if self.defect == "ppc-subf-swapped":
            a, b = b, a
        self._set_gpr(_f(op, 25, 21), b - a)
        self._advance(pc)

    def _x_logic(self, op: int, pc: int, combine) -> None:
        rs, ra, rb = _f(op, 25, 21), _f(op, 20, 16), _f(op, 15, 11)
        self._set_gpr(ra, combine(self._gpr(rs), self._gpr(rb)))
        self._advance(pc)

    def op_and(self, op: int, pc: int) -> None:
        self._x_logic(op, pc, int.__and__)

    def op_or(self, op: int, pc: int) -> None:
        self._x_logic(op, pc, int.__or__)

    def op_xor(self, op: int, pc: int) -> None:
        self._x_logic(op, pc, int.__xor__)

    def _spr(self, op: int) -> Reg:
        spr = _PPC_SPRS.get(_f(op, 20, 11))
        if spr is None:
            raise CosimUnsupported(f"SPR field {_f(op, 20, 11)} not modelled")
        return spr

    def op_mtspr(self, op: int, pc: int) -> None:
        self._wr(self._spr(op), self._gpr(_f(op, 25, 21)))
        self._advance(pc)

    def op_mfspr(self, op: int, pc: int) -> None:
        self._set_gpr(_f(op, 25, 21), self._rr(self._spr(op)))
        self._advance(pc)


def interp_for(
    arch: CosimArch,
    state: MachineState,
    device=None,
    defect: str | None = None,
) -> _BaseInterp:
    """The fast interpreter for ``arch`` operating on ``state`` in place."""
    from ..arch import registry

    cls = registry.get(arch.name).interp_class()
    return cls(arch, state, device=device, defect=defect)
