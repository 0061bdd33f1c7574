"""RV64I decoder / disassembler for the modelled subset."""

from __future__ import annotations

ABI = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
    "t3", "t4", "t5", "t6",
]


class UnknownInstruction(Exception):
    """The opcode is outside the modelled subset."""


def _f(op: int, hi: int, lo: int) -> int:
    return (op >> lo) & ((1 << (hi - lo + 1)) - 1)


def _simm(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _imm_i(op: int) -> int:
    return _simm(_f(op, 31, 20), 12)


def _imm_s(op: int) -> int:
    return _simm((_f(op, 31, 25) << 5) | _f(op, 11, 7), 12)


def _imm_b(op: int) -> int:
    raw = (
        (_f(op, 31, 31) << 12) | (_f(op, 7, 7) << 11)
        | (_f(op, 30, 25) << 5) | (_f(op, 11, 8) << 1)
    )
    return _simm(raw, 13)


def _imm_j(op: int) -> int:
    raw = (
        (_f(op, 31, 31) << 20) | (_f(op, 19, 12) << 12)
        | (_f(op, 20, 20) << 11) | (_f(op, 30, 21) << 1)
    )
    return _simm(raw, 21)


_LOADS = {0: "lb", 1: "lh", 2: "lw", 3: "ld", 4: "lbu", 5: "lhu", 6: "lwu"}
_STORES = {0: "sb", 1: "sh", 2: "sw", 3: "sd"}
_BRANCHES = {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu", 7: "bgeu"}
_OPIMM = {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori", 7: "andi"}
_OP = {
    (0, 0): "add", (0, 32): "sub", (1, 0): "sll", (2, 0): "slt",
    (3, 0): "sltu", (4, 0): "xor", (5, 0): "srl", (5, 32): "sra",
    (6, 0): "or", (7, 0): "and",
}


def disassemble(op: int) -> str:
    major = _f(op, 6, 0)
    if major not in _MAJOR_ARMS:  # every accepted word has one of these majors
        raise UnknownInstruction(f"{op:#010x}")
    rd, rs1, rs2 = ABI[_f(op, 11, 7)], ABI[_f(op, 19, 15)], ABI[_f(op, 24, 20)]
    funct3 = _f(op, 14, 12)
    if major == 0b0110111:
        return f"lui {rd}, {_f(op, 31, 12):#x}"
    if major == 0b0010111:
        return f"auipc {rd}, {_f(op, 31, 12):#x}"
    if major == 0b1101111:
        off = _imm_j(op)
        return f"j {off}" if rd == "zero" else f"jal {rd}, {off}"
    if major == 0b1100111 and funct3 == 0:
        if rd == "zero" and rs1 == "ra" and _imm_i(op) == 0:
            return "ret"
        return f"jalr {rd}, {_imm_i(op)}({rs1})"
    if major == 0b1100011 and funct3 in _BRANCHES:
        name = _BRANCHES[funct3]
        if rs2 == "zero" and name in ("beq", "bne"):
            return f"{name}z {rs1}, {_imm_b(op)}"
        return f"{name} {rs1}, {rs2}, {_imm_b(op)}"
    if major == 0b0000011 and funct3 in _LOADS:
        return f"{_LOADS[funct3]} {rd}, {_imm_i(op)}({rs1})"
    if major == 0b0100011 and funct3 in _STORES:
        return f"{_STORES[funct3]} {rs2}, {_imm_s(op)}({rs1})"
    if major == 0b0010011:
        if funct3 == 1:
            if _f(op, 31, 26):  # funct6 must be zero for RV64 slli
                raise UnknownInstruction(f"{op:#010x}")
            return f"slli {rd}, {rs1}, {_f(op, 25, 20)}"
        if funct3 == 5:
            if _f(op, 31, 26) not in (0b000000, 0b010000):
                raise UnknownInstruction(f"{op:#010x}")
            name = "srai" if _f(op, 30, 30) else "srli"
            return f"{name} {rd}, {rs1}, {_f(op, 25, 20)}"
        name = _OPIMM[funct3]
        imm = _imm_i(op)
        if name == "addi":
            if rd == "zero" and rs1 == "zero" and imm == 0:
                return "nop"
            if rs1 == "zero":
                return f"li {rd}, {imm}"
            if imm == 0:
                return f"mv {rd}, {rs1}"
        return f"{name} {rd}, {rs1}, {imm}"
    if major == 0b0011011:
        if funct3 == 0:
            return f"addiw {rd}, {rs1}, {_imm_i(op)}"
        if funct3 == 1 and _f(op, 31, 25) == 0:
            return f"slliw {rd}, {rs1}, {_f(op, 24, 20)}"
        if funct3 == 5 and _f(op, 31, 25) in (0b0000000, 0b0100000):
            name = "sraiw" if _f(op, 30, 30) else "srliw"
            return f"{name} {rd}, {rs1}, {_f(op, 24, 20)}"
    if major in (0b0110011, 0b0111011):
        key = (funct3, _f(op, 31, 25))
        name = _OP.get(key)
        if name is not None:
            if major == 0b0111011:
                if name not in ("add", "sub", "sll", "srl", "sra"):
                    raise UnknownInstruction(f"{op:#010x}")  # no sltw etc.
                name += "w"
            return f"{name} {rd}, {rs1}, {rs2}"
    if major == 0b0001111:
        # Only the canonical full fence; other pred/succ/fm fields would all
        # print as the same text.
        if op != 0x0FF0000F:
            raise UnknownInstruction(f"{op:#010x}")
        return "fence"
    if major == 0b1110011:
        return _system(op, rd, rs1, funct3)
    raise UnknownInstruction(f"{op:#010x}")


_CSR_NAMES = {
    0x300: "mstatus", 0x301: "misa", 0x304: "mie", 0x305: "mtvec",
    0x340: "mscratch", 0x341: "mepc", 0x342: "mcause", 0x343: "mtval",
    0x344: "mip", 0xF14: "mhartid",
}


def _system(op: int, rd: str, rs1: str, funct3: int) -> str:
    if funct3 == 0:
        if _f(op, 19, 7):  # rd/rs1 must be x0
            raise UnknownInstruction(f"{op:#010x}")
        funct12 = _f(op, 31, 20)
        name = {0: "ecall", 1: "ebreak", 0x302: "mret", 0x105: "wfi"}.get(funct12)
        if name is None:
            raise UnknownInstruction(f"{op:#010x}")
        return name
    if funct3 == 0b100:  # reserved
        raise UnknownInstruction(f"{op:#010x}")
    csr_addr = _f(op, 31, 20)
    csr = _CSR_NAMES.get(csr_addr, f"{csr_addr:#x}")
    base = {1: "csrrw", 2: "csrrs", 3: "csrrc"}[funct3 & 0b011]
    if funct3 & 0b100:
        return f"{base}i {rd}, {csr}, {_f(op, 19, 15)}"
    if base == "csrrs" and rs1 == "zero":
        return f"csrr {rd}, {csr}"
    if base == "csrrw" and rd == "zero":
        return f"csrw {csr}, {rs1}"
    return f"{base} {rd}, {csr}, {rs1}"


def try_disassemble(op: int) -> str:
    try:
        return disassemble(op)
    except UnknownInstruction:
        return f".word {op:#010x}"


_MAJOR_ARMS = {
    0b0110111: "lui", 0b0010111: "auipc", 0b1101111: "jal",
    0b1100111: "jalr", 0b1100011: "branch", 0b0000011: "load",
    0b0100011: "store", 0b0010011: "op_imm", 0b0011011: "op_imm32",
    0b0110011: "op", 0b0111011: "op32", 0b0001111: "fence",
    0b1110011: "system",
}


def decode_arm(op: int) -> str:
    """The decoder arm (major-opcode class) that claims ``op``.

    Raises :class:`UnknownInstruction` exactly when :func:`disassemble` does;
    round-trip tests use this for generator-coverage assertions.
    """
    disassemble(op)
    return _MAJOR_ARMS[_f(op, 6, 0)]


#: Every decode-arm name, in major-opcode order.  The architecture registry
#: exposes this as the authoritative arm list for coverage maps.
DECODE_ARMS = tuple(_MAJOR_ARMS.values())
