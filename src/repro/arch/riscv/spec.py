"""Declarative ISA specification for the modelled RV64I subset.

This is the input to :mod:`repro.analysis.isaspec`: every decode arm of
:mod:`repro.arch.riscv.decode` restated as an exact bitvector claim, plus
the defined-invalid space (unallocated major opcodes; reserved minor
encodings fall out as region residuals).  The validator proves the claims
pairwise disjoint and jointly covering, and grounds them against the
hand-written decoder on witness and probe words.

Each arm's field table is the only description of its bits:
:mod:`repro.arch.riscv.encode` packs every word through it
(:mod:`repro.arch.encoding`), and the validator checks it by reassembling
decoder witnesses — the decoder and disassembler stay independent of it.
Scrambled immediates are split into their ISA-manual slices
(``imm10_5`` is ``imm[10:5]``).
"""

from __future__ import annotations

from ...analysis.isaspec import ArmSpec, InvalidRegion, IsaSpec

# Major opcodes (bits [6:0]) of the modelled subset.
_MAJORS = {
    "lui": 0b0110111, "auipc": 0b0010111, "jal": 0b1101111,
    "jalr": 0b1100111, "branch": 0b1100011, "load": 0b0000011,
    "store": 0b0100011, "op_imm": 0b0010011, "op_imm32": 0b0011011,
    "op": 0b0110011, "op32": 0b0111011, "fence": 0b0001111,
    "system": 0b1110011,
}


def _major(name: str) -> tuple:
    return ("eq", 6, 0, _MAJORS[name])


_MAJOR = ("major", 6, 0)
_U_TYPE = (("imm20", 31, 12), ("rd", 11, 7), _MAJOR)
_J_TYPE = (
    ("imm20", 31, 31), ("imm10_1", 30, 21), ("imm11", 20, 20),
    ("imm19_12", 19, 12), ("rd", 11, 7), _MAJOR,
)
_I_TYPE = (
    ("imm12", 31, 20), ("rs1", 19, 15), ("funct3", 14, 12), ("rd", 11, 7),
    _MAJOR,
)
_S_TYPE = (
    ("imm11_5", 31, 25), ("rs2", 24, 20), ("rs1", 19, 15),
    ("funct3", 14, 12), ("imm4_0", 11, 7), _MAJOR,
)
_B_TYPE = (
    ("imm12", 31, 31), ("imm10_5", 30, 25), ("rs2", 24, 20), ("rs1", 19, 15),
    ("funct3", 14, 12), ("imm4_1", 11, 8), ("imm11", 7, 7), _MAJOR,
)
_R_TYPE = (
    ("funct7", 31, 25), ("rs2", 24, 20), ("rs1", 19, 15),
    ("funct3", 14, 12), ("rd", 11, 7), _MAJOR,
)
#: System words: ``funct12`` is the CSR address, ``rs1`` a register or the
#: 5-bit ``zimm`` of the immediate CSR forms.
_SYSTEM = (
    ("funct12", 31, 20), ("rs1", 19, 15), ("funct3", 14, 12), ("rd", 11, 7),
    _MAJOR,
)


def _arms() -> tuple:
    arms = [
        ArmSpec(name="lui", match=(_major("lui"),), fields=_U_TYPE),
        ArmSpec(name="auipc", match=(_major("auipc"),), fields=_U_TYPE),
        ArmSpec(name="jal", match=(_major("jal"),), fields=_J_TYPE),
        ArmSpec(
            name="jalr",
            match=(_major("jalr"), ("eq", 14, 12, 0)),
            region=(_major("jalr"),),
            fields=_I_TYPE,
        ),
        ArmSpec(
            name="branch",
            match=(_major("branch"), ("in", 14, 12, (0, 1, 4, 5, 6, 7))),
            region=(_major("branch"),),
            fields=_B_TYPE,
        ),
        ArmSpec(
            name="load",
            match=(_major("load"), ("lt", 14, 12, 7)),
            region=(_major("load"),),
            fields=_I_TYPE,
        ),
        ArmSpec(
            name="store",
            match=(_major("store"), ("lt", 14, 12, 4)),
            region=(_major("store"),),
            fields=_S_TYPE,
        ),
        ArmSpec(
            name="op_imm",
            match=(
                _major("op_imm"),
                ("or",
                 ("notin", 14, 12, (1, 5)),
                 ("and", ("eq", 14, 12, 1), ("eq", 31, 26, 0)),
                 ("and", ("eq", 14, 12, 5),
                  ("in", 31, 26, (0b000000, 0b010000)))),
            ),
            region=(_major("op_imm"),),
            fields=_I_TYPE,
        ),
        ArmSpec(
            name="op_imm32",
            match=(
                _major("op_imm32"),
                ("or",
                 ("eq", 14, 12, 0),
                 ("and", ("eq", 14, 12, 1), ("eq", 31, 25, 0)),
                 ("and", ("eq", 14, 12, 5),
                  ("in", 31, 25, (0b0000000, 0b0100000)))),
            ),
            region=(_major("op_imm32"),),
            fields=_I_TYPE,
        ),
        ArmSpec(
            name="op",
            match=(
                _major("op"),
                ("or",
                 ("eq", 31, 25, 0),
                 ("and", ("eq", 31, 25, 0b0100000), ("in", 14, 12, (0, 5)))),
            ),
            region=(_major("op"),),
            fields=_R_TYPE,
        ),
        ArmSpec(
            name="op32",
            match=(
                _major("op32"),
                ("or",
                 ("and", ("eq", 31, 25, 0), ("in", 14, 12, (0, 1, 5))),
                 ("and", ("eq", 31, 25, 0b0100000), ("in", 14, 12, (0, 5)))),
            ),
            region=(_major("op32"),),
            fields=_R_TYPE,
        ),
        ArmSpec(
            name="fence",
            # Only the canonical full fence word is modelled.
            match=(("eq", 31, 0, 0x0FF0000F),),
            region=(_major("fence"),),
            fields=(
                ("fm_pred_succ", 31, 20), ("rs1", 19, 15),
                ("funct3", 14, 12), ("rd", 11, 7), _MAJOR,
            ),
        ),
        ArmSpec(
            name="system",
            match=(
                _major("system"),
                ("or",
                 ("in", 14, 12, (1, 2, 3, 5, 6, 7)),
                 ("and", ("eq", 14, 12, 0), ("eq", 19, 7, 0),
                  ("in", 31, 20, (0, 1, 0x302, 0x105)))),
            ),
            region=(_major("system"),),
            fields=_SYSTEM,
        ),
    ]
    return tuple(arms)


def _probes() -> dict:
    from . import encode as e

    return {
        "lui": (e.lui(5, 0x12345), e.lui(0, 0xFFFFF)),
        "auipc": (e.auipc(3, 1), e.auipc(31, 0)),
        "jal": (e.jal(1, 2048), e.jal(0, -4)),
        "jalr": (e.jalr(0, 1, 0), e.jalr(5, 6, -8), e.ret()),
        "branch": (
            e.beq(1, 2, 8), e.bne(3, 4, -8), e.blt(5, 6, 16),
            e.bge(7, 8, -16), e.bltu(9, 10, 32), e.bgeu(11, 12, -64),
        ),
        "load": (
            e.lb(1, 2, 0), e.lh(3, 4, 2), e.lw(5, 6, -4), e.ld(7, 8, 8),
            e.lbu(9, 10, 1), e.lhu(11, 12, -2), e.lwu(13, 14, 4),
        ),
        "store": (e.sb(1, 2, 0), e.sh(3, 4, 2), e.sw(5, 6, -4), e.sd(7, 8, 8)),
        "op_imm": (
            e.addi(1, 2, 3), e.slti(3, 4, -5), e.sltiu(5, 6, 7),
            e.xori(7, 8, -1), e.ori(9, 10, 0xF), e.andi(11, 12, -16),
            e.slli(13, 14, 5), e.srli(15, 16, 6), e.srai(17, 18, 7),
        ),
        "op_imm32": (e.addiw(1, 2, 3), e.srliw(4, 5, 6)),
        "op": (
            e.add(1, 2, 3), e.sub(4, 5, 6), e.sll(7, 8, 9), e.slt(10, 11, 12),
            e.sltu(13, 14, 15), e.xor(16, 17, 18), e.srl(19, 20, 21),
            e.sra(22, 23, 24), e.or_(25, 26, 27), e.and_(28, 29, 30),
        ),
        "op32": (e.addw(1, 2, 3),),
        "fence": (0x0FF0000F,),
        "system": (
            e.csrrw(1, "mstatus", 2), e.csrrs(3, "mepc", 4),
            e.csrrc(5, "mcause", 6), e.csrrwi(7, "mtvec", 8),
            e.csrrsi(9, "mie", 10), e.csrrci(11, "mip", 12),
            e.csrr(13, "mhartid"), e.csrw("mscratch", 14),
            e.ecall(), e.ebreak(), e.mret(), e.wfi(),
        ),
    }


#: The arms, built once: :mod:`repro.arch.riscv.encode` packs through them.
ARMS = _arms()


def build_spec() -> IsaSpec:
    from . import asm, decode

    return IsaSpec(
        arch="riscv",
        arms=ARMS,
        invalid=(
            InvalidRegion(
                name="unallocated_major",
                clauses=(("notin", 6, 0, tuple(sorted(_MAJORS.values()))),),
            ),
        ),
        decode_arm=decode.decode_arm,
        invalid_exc=decode.UnknownInstruction,
        disassemble=decode.disassemble,
        assemble_line=asm.assemble_line,
        probes=_probes(),
        coverage_shard=None,
    )
