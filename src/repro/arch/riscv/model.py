"""Mini-Sail model of RV64I (the subset the case studies exercise).

Mirrors the structure of the official Sail RISC-V model: a decoder over the
major opcode field dispatching to per-class execute functions.  Supports the
base integer ISA pieces compiled C code needs: LUI/AUIPC, JAL/JALR, the
conditional branches, byte/word/double loads and stores (signed and
unsigned), and the OP/OP-IMM ALU groups (including the 32-bit W forms).

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

PC = Reg("PC")


_XREGS = tuple(Reg(f"x{n}") for n in range(32))


def xreg(n: int) -> Reg:
    """Register ``x<n>`` (n in 1..31), one shared name."""
    if not 1 <= n <= 31:
        raise ValueError(f"x{n} is not an allocatable register")
    return _XREGS[n]


#: Machine-mode CSRs we model: name -> CSR address (RISC-V privileged spec).
CSR_ADDRESSES = {
    "mstatus": 0x300,
    "misa": 0x301,
    "mie": 0x304,
    "mtvec": 0x305,
    "mscratch": 0x340,
    "mepc": 0x341,
    "mcause": 0x342,
    "mtval": 0x343,
    "mip": 0x344,
    "mhartid": 0xF14,
}

ADDRESS_TO_CSR = {addr: name for name, addr in CSR_ADDRESSES.items()}

#: mcause values for the synchronous traps we model.
CAUSE_ECALL_M = 11
CAUSE_BREAKPOINT = 3

#: mstatus bit positions (machine-mode subset).
MSTATUS_MIE = 3
MSTATUS_MPIE = 7


def declare_riscv_registers(regfile: RegisterFile) -> None:
    for i in range(1, 32):
        regfile.declare(f"x{i}", 64)
    regfile.declare("PC", 64)
    for csr in CSR_ADDRESSES:
        regfile.declare(csr, 64)


def fld(opcode: Term, hi: int, lo: int) -> Term:
    return B.extract(hi, lo, opcode)


def fld_int(opcode: Term, hi: int, lo: int) -> int:
    t = fld(opcode, hi, lo)
    if not t.is_value():
        raise ValueError(f"symbolic decode field [{hi}:{lo}]")
    return t.value


@sail_fn
def rX(m: MachineInterface, n: int) -> Term:
    """Read integer register (x0 reads as zero)."""
    if n == 0:
        return P.zeros(64)
    return m.read_reg(xreg(n))


@sail_fn
def wX(m: MachineInterface, n: int, value: Term) -> None:
    """Write integer register (writes to x0 are discarded)."""
    if n == 0:
        return
    m.write_reg(xreg(n), value)


def advance_pc(m: MachineInterface, pc: Term | None = None) -> None:
    if pc is None:
        pc = m.read_reg(PC)
    m.write_reg(PC, B.bvadd(pc, B.bv(4, 64)))


def _imm_i(opcode: Term) -> Term:
    return P.sign_extend(fld(opcode, 31, 20), 64)


def _imm_s(opcode: Term) -> Term:
    return P.sign_extend(B.concat(fld(opcode, 31, 25), fld(opcode, 11, 7)), 64)


def _imm_b(opcode: Term) -> Term:
    imm = B.concat_many(
        fld(opcode, 31, 31), fld(opcode, 7, 7),
        fld(opcode, 30, 25), fld(opcode, 11, 8), B.bv(0, 1),
    )
    return P.sign_extend(imm, 64)


def _imm_u(opcode: Term) -> Term:
    return P.sign_extend(B.concat(fld(opcode, 31, 12), P.zeros(12)), 64)


def _imm_j(opcode: Term) -> Term:
    imm = B.concat_many(
        fld(opcode, 31, 31), fld(opcode, 19, 12),
        fld(opcode, 20, 20), fld(opcode, 30, 21), B.bv(0, 1),
    )
    return P.sign_extend(imm, 64)


# ---------------------------------------------------------------------------
# Instruction classes.
# ---------------------------------------------------------------------------


@sail_fn
def execute_lui(m, opcode: Term) -> None:
    rd = fld_int(opcode, 11, 7)
    wX(m, rd, _imm_u(opcode))
    advance_pc(m)


@sail_fn
def execute_auipc(m, opcode: Term) -> None:
    rd = fld_int(opcode, 11, 7)
    pc = m.read_reg(PC)
    wX(m, rd, m.define("auipc", B.bvadd(pc, _imm_u(opcode))))
    advance_pc(m, pc)


@sail_fn
def execute_jal(m, opcode: Term) -> None:
    rd = fld_int(opcode, 11, 7)
    pc = m.read_reg(PC)
    wX(m, rd, B.bvadd(pc, B.bv(4, 64)))
    m.write_reg(PC, m.define("target", B.bvadd(pc, _imm_j(opcode))))


@sail_fn
def execute_jalr(m, opcode: Term) -> None:
    rd = fld_int(opcode, 11, 7)
    rs1 = fld_int(opcode, 19, 15)
    pc = m.read_reg(PC)
    base = rX(m, rs1)
    target = B.bvand(
        B.bvadd(base, _imm_i(opcode)), B.bv((1 << 64) - 2, 64)
    )  # clear bit 0, per the spec
    target = m.define("target", target)
    wX(m, rd, B.bvadd(pc, B.bv(4, 64)))
    m.write_reg(PC, target)


_BRANCH_OPS = {
    0b000: lambda a, b: B.eq(a, b),  # BEQ
    0b001: lambda a, b: B.not_(B.eq(a, b)),  # BNE
    0b100: B.bvslt,  # BLT
    0b101: B.bvsge,  # BGE
    0b110: B.bvult,  # BLTU
    0b111: B.bvuge,  # BGEU
}


@sail_fn
def execute_branch(m, opcode: Term) -> None:
    funct3 = fld_int(opcode, 14, 12)
    rs1 = fld_int(opcode, 19, 15)
    rs2 = fld_int(opcode, 24, 20)
    op = _BRANCH_OPS.get(funct3)
    if op is None:
        m.unreachable(f"reserved branch funct3 {funct3:#05b}")
        return
    cond = op(rX(m, rs1), rX(m, rs2))
    pc = m.read_reg(PC)
    if m.branch(cond, "branch taken"):
        m.write_reg(PC, m.define("target", B.bvadd(pc, _imm_b(opcode))))
    else:
        advance_pc(m, pc)


@sail_fn
def execute_load(m, opcode: Term) -> None:
    funct3 = fld_int(opcode, 14, 12)
    rd = fld_int(opcode, 11, 7)
    rs1 = fld_int(opcode, 19, 15)
    width = funct3 & 0b011
    unsigned = bool(funct3 & 0b100)
    nbytes = 1 << width
    if funct3 == 0b111:
        m.unreachable("reserved load funct3")
        return
    addr = m.define("addr", B.bvadd(rX(m, rs1), _imm_i(opcode)))
    data = m.read_mem(addr, nbytes)
    ext = P.zero_extend if unsigned else P.sign_extend
    wX(m, rd, m.define("loaded", ext(data, 64)))
    advance_pc(m)


@sail_fn
def execute_store(m, opcode: Term) -> None:
    funct3 = fld_int(opcode, 14, 12)
    rs1 = fld_int(opcode, 19, 15)
    rs2 = fld_int(opcode, 24, 20)
    nbytes = 1 << (funct3 & 0b011)
    if funct3 > 0b011:
        m.unreachable("reserved store funct3")
        return
    addr = m.define("addr", B.bvadd(rX(m, rs1), _imm_s(opcode)))
    data = rX(m, rs2)
    m.write_mem(addr, B.extract(8 * nbytes - 1, 0, data), nbytes)
    advance_pc(m)


def _alu(m, funct3: int, alt: bool, a: Term, b: Term, width: int) -> Term:
    shamt_mask = B.bv(width - 1, width)
    if funct3 == 0b000:
        return B.bvsub(a, b) if alt else B.bvadd(a, b)
    if funct3 == 0b001:
        return B.bvshl(a, B.bvand(b, shamt_mask))
    if funct3 == 0b010:
        return P.zero_extend(P.bool_to_bit(B.bvslt(a, b)), width)
    if funct3 == 0b011:
        return P.zero_extend(P.bool_to_bit(B.bvult(a, b)), width)
    if funct3 == 0b100:
        return B.bvxor(a, b)
    if funct3 == 0b101:
        sh = B.bvand(b, shamt_mask)
        return B.bvashr(a, sh) if alt else B.bvlshr(a, sh)
    if funct3 == 0b110:
        return B.bvor(a, b)
    return B.bvand(a, b)


@sail_fn
def execute_op_imm(m, opcode: Term, word: bool = False) -> None:
    funct3 = fld_int(opcode, 14, 12)
    rd = fld_int(opcode, 11, 7)
    rs1 = fld_int(opcode, 19, 15)
    width = 32 if word else 64
    a = rX(m, rs1)
    if word:
        a = B.extract(31, 0, a)
    imm = _imm_i(opcode)
    if word:
        imm = B.extract(31, 0, imm)
    alt = False
    if funct3 == 0b101:
        alt = bool(fld_int(opcode, 30, 30))  # SRAI vs SRLI
        imm = B.bvand(imm, B.bv(width - 1, width))
    result = _alu(m, funct3, alt, a, imm, width)
    if word:
        result = P.sign_extend(result, 64)
    wX(m, rd, m.define("alures", result))
    advance_pc(m)


@sail_fn
def execute_op(m, opcode: Term, word: bool = False) -> None:
    funct3 = fld_int(opcode, 14, 12)
    funct7 = fld_int(opcode, 31, 25)
    rd = fld_int(opcode, 11, 7)
    rs1 = fld_int(opcode, 19, 15)
    rs2 = fld_int(opcode, 24, 20)
    if funct7 not in (0b0000000, 0b0100000):
        m.unreachable(f"funct7 {funct7:#09b} not modelled (no M extension)")
        return
    alt = funct7 == 0b0100000
    width = 32 if word else 64
    a, b = rX(m, rs1), rX(m, rs2)
    if word:
        a, b = B.extract(31, 0, a), B.extract(31, 0, b)
    result = _alu(m, funct3, alt, a, b, width)
    if word:
        result = P.sign_extend(result, 64)
    wX(m, rd, m.define("alures", result))
    advance_pc(m)


@sail_fn
def take_trap(m, cause: int, pc: Term, tval: Term | None = None) -> None:
    """Machine-mode synchronous trap entry (the Sail model's
    ``trap_handler``, M-mode-only subset): save the PC and cause, stack the
    interrupt-enable bit, and jump to ``mtvec`` (direct mode)."""
    m.write_reg(Reg("mepc"), pc)
    m.write_reg(Reg("mcause"), B.bv(cause, 64))
    m.write_reg(Reg("mtval"), tval if tval is not None else B.bv(0, 64))
    status = m.read_reg(Reg("mstatus"))
    mie = P.bit(status, MSTATUS_MIE)
    status = P.set_slice(status, MSTATUS_MPIE, mie)  # MPIE := MIE
    status = P.set_slice(status, MSTATUS_MIE, B.bv(0, 1))  # MIE := 0
    m.write_reg(Reg("mstatus"), m.define("mstatus", status))
    tvec = m.read_reg(Reg("mtvec"))
    # Direct mode: base is tvec[63:2] << 2 (we require MODE = 0).
    m.write_reg(PC, B.bvand(tvec, B.bv(~0b11, 64)))


@sail_fn
def execute_mret(m, opcode: Term) -> None:
    """MRET: return from a machine-mode trap (unstack MIE, jump to mepc)."""
    status = m.read_reg(Reg("mstatus"))
    mpie = P.bit(status, MSTATUS_MPIE)
    status = P.set_slice(status, MSTATUS_MIE, mpie)  # MIE := MPIE
    status = P.set_slice(status, MSTATUS_MPIE, B.bv(1, 1))  # MPIE := 1
    m.write_reg(Reg("mstatus"), m.define("mstatus", status))
    m.write_reg(PC, m.read_reg(Reg("mepc")))


@sail_fn
def execute_csr(m, opcode: Term) -> None:
    """Zicsr: CSRRW/CSRRS/CSRRC and their immediate forms."""
    funct3 = fld_int(opcode, 14, 12)
    rd = fld_int(opcode, 11, 7)
    rs1 = fld_int(opcode, 19, 15)
    addr = fld_int(opcode, 31, 20)
    name = ADDRESS_TO_CSR.get(addr)
    if name is None:
        m.unreachable(f"CSR {addr:#05x} not modelled")
        return
    csr = Reg(name)
    imm_form = bool(funct3 & 0b100)
    operand = (
        P.zero_extend(B.bv(rs1, 5), 64) if imm_form else rX(m, rs1)
    )
    kind = funct3 & 0b011
    # CSRRW with rd=x0 skips the read; CSRRS/C with rs1=x0 skip the write.
    old = None
    if not (kind == 0b01 and rd == 0):
        old = m.read_reg(csr)
    if kind == 0b01:  # CSRRW
        m.write_reg(csr, operand)
    elif rs1 != 0:
        if kind == 0b10:  # CSRRS
            m.write_reg(csr, m.define("csrval", B.bvor(old, operand)))
        else:  # CSRRC
            m.write_reg(csr, m.define("csrval", B.bvand(old, B.bvnot(operand))))
    if old is not None:
        wX(m, rd, old)
    advance_pc(m)


@sail_fn
def execute_system(m, opcode: Term) -> None:
    funct3 = fld_int(opcode, 14, 12)
    if funct3 != 0:
        execute_csr(m, opcode)
        return
    funct12 = fld_int(opcode, 31, 20)
    pc = m.read_reg(PC)
    if funct12 == 0b000000000000:  # ECALL
        take_trap(m, CAUSE_ECALL_M, pc)
    elif funct12 == 0b000000000001:  # EBREAK
        take_trap(m, CAUSE_BREAKPOINT, pc, tval=pc)
    elif funct12 == 0b001100000010:  # MRET
        execute_mret(m, opcode)
    elif funct12 == 0b000100000101:  # WFI: behaves as NOP here
        advance_pc(m, pc)
    else:
        m.unreachable(f"SYSTEM funct12 {funct12:#014b} not modelled")


class RiscvModel(IsaModel):
    """The RV64I model."""

    name = "riscv64"
    pc_reg = PC
    instr_bytes = 4

    def _declare_registers(self, regfile: RegisterFile) -> None:
        declare_riscv_registers(regfile)

    def execute(self, m: MachineInterface, opcode: Term) -> None:
        major = fld_int(opcode, 6, 0)
        if major == 0b0110111:
            execute_lui(m, opcode)
        elif major == 0b0010111:
            execute_auipc(m, opcode)
        elif major == 0b1101111:
            execute_jal(m, opcode)
        elif major == 0b1100111:
            execute_jalr(m, opcode)
        elif major == 0b1100011:
            execute_branch(m, opcode)
        elif major == 0b0000011:
            execute_load(m, opcode)
        elif major == 0b0100011:
            execute_store(m, opcode)
        elif major == 0b0010011:
            execute_op_imm(m, opcode)
        elif major == 0b0011011:
            execute_op_imm(m, opcode, word=True)
        elif major == 0b0110011:
            execute_op(m, opcode)
        elif major == 0b0111011:
            execute_op(m, opcode, word=True)
        elif major == 0b0001111:
            advance_pc(m)  # FENCE behaves as NOP (single-threaded)
        elif major == 0b1110011:
            execute_system(m, opcode)
        else:
            m.unreachable(f"major opcode {major:#09b} not modelled")
