"""Declarative ISA specification for the modelled AArch64 subset.

Input to :mod:`repro.analysis.isaspec`: each of the 24 decode arms of
:mod:`repro.arch.arm.decode` restated as an exact bitvector *claim* inside a
coarse ISA-manual *region*, plus hand-authored defined-invalid carve-outs
(SIMD/FP, unallocated op0 rows, reserved minor encodings) that complete the
32-bit word space.  The validator proves pairwise disjointness and joint
coverage, and grounds the claims against the hand-written decoder on
witness and probe words.

Each arm's field table is the only description of its bits:
:mod:`repro.arch.arm.encode` packs every word through it
(:mod:`repro.arch.encoding`), and the validator checks it by reassembling
decoder witnesses — the decoder and disassembler stay independent of it.

The one genuinely non-structural claim is ``logical_imm``'s bitmask
canonicality (ASL ``DecodeBitMasks``): the leading-one pattern of
``immN:NOT(imms)`` picks the element size, the rotation must stay below it,
and the run length must not fill the element.  That predicate is expressed
directly over the word with a :class:`Raw` clause so the solver reasons
about the *exact* accepted set, not an approximation.
"""

from __future__ import annotations

from ...analysis.isaspec import ArmSpec, InvalidRegion, IsaSpec, Raw
from ...smt import builder as B


def _bitmask_canonical(word):
    """The decoder's ``DecodeBitMasks`` acceptance, bit-exactly.

    With ``combined = immN:NOT(imms)`` (7 bits), the highest set bit k picks
    ``esize = 2**k``; accepted iff ``k >= 1``, ``immr < esize`` and the low
    ``k`` bits of ``imms`` are not all ones (``s == levels`` is reserved).
    """
    immn = B.extract(22, 22, word)
    immr = B.extract(21, 16, word)
    imms = B.extract(15, 10, word)
    combined = B.concat(immn, B.bvnot(imms))
    cases = []
    for k in range(1, 7):
        parts = [B.eq(B.extract(6, k, combined), B.bv(1, 7 - k))]
        if k < 6:  # k == 6 -> esize 64; a 6-bit immr is always < 64
            parts.append(B.bvult(immr, B.bv(1 << k, 6)))
        parts.append(B.not_(B.eq(B.extract(k - 1, 0, imms), B.bv((1 << k) - 1, k))))
        cases.append(B.and_(*parts))
    return B.or_(*cases)


#: (size, opc) pairs with a load/store mnemonic (``_LDST_NAMES``): opc<2
#: always, opc==2 except for the 64-bit row (no ldrsw of 64-bit data).
_LDST_SIZED = ("or", ("lt", 23, 22, 2),
               ("and", ("eq", 23, 22, 2), ("ne", 31, 30, 3)))


def _arms() -> tuple:
    return (
        ArmSpec(
            name="addsub_imm",
            match=(("eq", 28, 23, 0b100010),),
            fields=(("sf", 31, 31), ("op", 30, 30), ("s", 29, 29),
                    ("fixed", 28, 23), ("sh", 22, 22), ("imm12", 21, 10),
                    ("rn", 9, 5), ("rd", 4, 0)),
        ),
        ArmSpec(
            name="addsub_reg",
            match=(("eq", 28, 24, 0b01011), ("eq", 21, 21, 0),
                   ("ne", 23, 22, 0b11)),
            region=(("eq", 28, 24, 0b01011), ("eq", 21, 21, 0)),
            fields=(("sf", 31, 31), ("op", 30, 30), ("s", 29, 29),
                    ("fixed", 28, 24), ("shift", 23, 22), ("fixed21", 21, 21),
                    ("rm", 20, 16), ("imm6", 15, 10), ("rn", 9, 5),
                    ("rd", 4, 0)),
        ),
        ArmSpec(
            name="logical_reg",
            match=(("eq", 28, 24, 0b01010),),
            fields=(("sf", 31, 31), ("opc", 30, 29), ("fixed", 28, 24),
                    ("shift", 23, 22), ("n", 21, 21), ("rm", 20, 16),
                    ("imm6", 15, 10), ("rn", 9, 5), ("rd", 4, 0)),
        ),
        ArmSpec(
            name="logical_imm",
            match=(("eq", 28, 23, 0b100100),
                   ("not", ("and", ("eq", 31, 31, 0), ("eq", 22, 22, 1))),
                   Raw("bitmask_canonical", _bitmask_canonical)),
            region=(("eq", 28, 23, 0b100100),),
            fields=(("sf", 31, 31), ("opc", 30, 29), ("fixed", 28, 23),
                    ("n", 22, 22), ("immr", 21, 16), ("imms", 15, 10),
                    ("rn", 9, 5), ("rd", 4, 0)),
        ),
        ArmSpec(
            name="movewide",
            match=(("eq", 28, 23, 0b100101), ("in", 30, 29, (0b00, 0b10, 0b11))),
            region=(("eq", 28, 23, 0b100101),),
            fields=(("sf", 31, 31), ("opc", 30, 29), ("fixed", 28, 23),
                    ("hw", 22, 21), ("imm16", 20, 5), ("rd", 4, 0)),
        ),
        ArmSpec(
            name="bitfield",
            match=(("eq", 28, 23, 0b100110), ("in", 30, 29, (0b00, 0b10)),
                   Raw("n_eq_sf", lambda w: B.eq(
                       B.extract(22, 22, w), B.extract(31, 31, w))),
                   ("or", ("eq", 31, 31, 1),
                    ("and", ("lt", 21, 16, 32), ("lt", 15, 10, 32)))),
            region=(("eq", 28, 23, 0b100110),),
            fields=(("sf", 31, 31), ("opc", 30, 29), ("fixed", 28, 23),
                    ("n", 22, 22), ("immr", 21, 16), ("imms", 15, 10),
                    ("rn", 9, 5), ("rd", 4, 0)),
        ),
        ArmSpec(
            name="csel",
            match=(("eq", 28, 21, 0b11010100), ("eq", 29, 29, 0),
                   ("eq", 11, 11, 0)),
            region=(("eq", 28, 21, 0b11010100), ("eq", 29, 29, 0)),
            fields=(("sf", 31, 31), ("neg", 30, 30), ("fixed29", 29, 29),
                    ("fixed", 28, 21), ("rm", 20, 16), ("cond", 15, 12),
                    ("fixed11", 11, 11), ("o2", 10, 10), ("rn", 9, 5),
                    ("rd", 4, 0)),
        ),
        ArmSpec(
            name="ccmp",
            match=(("eq", 29, 21, 0b111010010), ("eq", 10, 10, 0),
                   ("eq", 4, 4, 0)),
            region=(("eq", 29, 21, 0b111010010),),
            fields=(("sf", 31, 31), ("op", 30, 30), ("fixed", 29, 21),
                    ("rm_or_imm", 20, 16), ("cond", 15, 12), ("e", 11, 11),
                    ("fixed10", 10, 10), ("rn", 9, 5), ("o3", 4, 4),
                    ("nzcv", 3, 0)),
        ),
        ArmSpec(
            name="div",
            match=(("eq", 30, 21, 0b0011010110), ("eq", 15, 11, 0b00001)),
            region=(("eq", 30, 21, 0b0011010110),),
            fields=(("sf", 31, 31), ("fixed", 30, 21), ("rm", 20, 16),
                    ("fixed2", 15, 11), ("o1", 10, 10), ("rn", 9, 5),
                    ("rd", 4, 0)),
        ),
        ArmSpec(
            name="rbit",
            match=(("eq", 30, 10, 0b1_0_11010110_00000_000000),),
            region=(("eq", 30, 29, 0b10), ("eq", 28, 21, 0b11010110)),
            fields=(("sf", 31, 31), ("fixed", 30, 10), ("rn", 9, 5),
                    ("rd", 4, 0)),
        ),
        ArmSpec(
            name="ldst_imm",
            match=(("eq", 29, 24, 0b111001), _LDST_SIZED),
            region=(("eq", 29, 24, 0b111001),),
            fields=(("size", 31, 30), ("fixed", 29, 24), ("opc", 23, 22),
                    ("imm12", 21, 10), ("rn", 9, 5), ("rt", 4, 0)),
        ),
        ArmSpec(
            name="ldst_reg",
            match=(("eq", 29, 24, 0b111000), ("eq", 21, 21, 1),
                   ("eq", 11, 10, 0b10), _LDST_SIZED,
                   ("in", 15, 13, (0b011, 0b010, 0b110))),
            region=(("eq", 29, 24, 0b111000), ("eq", 21, 21, 1),
                    ("eq", 11, 10, 0b10)),
            fields=(("size", 31, 30), ("fixed", 29, 24), ("opc", 23, 22),
                    ("fixed21", 21, 21), ("rm", 20, 16), ("option", 15, 13),
                    ("s", 12, 12), ("fixed2", 11, 10), ("rn", 9, 5),
                    ("rt", 4, 0)),
        ),
        ArmSpec(
            name="ldst_imm9",
            match=(("eq", 29, 24, 0b111000), ("eq", 21, 21, 0),
                   ("ne", 11, 10, 0b10), _LDST_SIZED),
            region=(("eq", 29, 24, 0b111000), ("eq", 21, 21, 0)),
            fields=(("size", 31, 30), ("fixed", 29, 24), ("opc", 23, 22),
                    ("fixed21", 21, 21), ("imm9", 20, 12), ("mode", 11, 10),
                    ("rn", 9, 5), ("rt", 4, 0)),
        ),
        ArmSpec(
            name="ldst_pair",
            match=(("eq", 29, 26, 0b1010), ("in", 31, 30, (0b00, 0b10)),
                   ("in", 25, 23, (0b001, 0b010, 0b011))),
            region=(("eq", 29, 26, 0b1010), ("eq", 25, 25, 0)),
            fields=(("opc", 31, 30), ("fixed", 29, 26), ("mode", 25, 23),
                    ("l", 22, 22), ("imm7", 21, 15), ("rt2", 14, 10),
                    ("rn", 9, 5), ("rt", 4, 0)),
        ),
        ArmSpec(
            name="adr",
            match=(("eq", 28, 24, 0b10000),),
            fields=(("page", 31, 31), ("immlo", 30, 29), ("fixed", 28, 24),
                    ("immhi", 23, 5), ("rd", 4, 0)),
        ),
        ArmSpec(
            name="madd",
            match=(("eq", 30, 21, 0b0011011000),),
            fields=(("sf", 31, 31), ("fixed", 30, 21), ("rm", 20, 16),
                    ("o0", 15, 15), ("ra", 14, 10), ("rn", 9, 5),
                    ("rd", 4, 0)),
        ),
        ArmSpec(
            name="cbz",
            match=(("eq", 30, 25, 0b011010),),
            fields=(("sf", 31, 31), ("fixed", 30, 25), ("op", 24, 24),
                    ("imm19", 23, 5), ("rt", 4, 0)),
        ),
        ArmSpec(
            name="tbz",
            match=(("eq", 30, 25, 0b011011),),
            fields=(("b5", 31, 31), ("fixed", 30, 25), ("op", 24, 24),
                    ("b40", 23, 19), ("imm14", 18, 5), ("rt", 4, 0)),
        ),
        ArmSpec(
            name="bcond",
            match=(("eq", 31, 24, 0b01010100), ("eq", 4, 4, 0)),
            region=(("eq", 31, 24, 0b01010100),),
            fields=(("fixed", 31, 24), ("imm19", 23, 5), ("fixed4", 4, 4),
                    ("cond", 3, 0)),
        ),
        ArmSpec(
            name="b_bl",
            match=(("eq", 30, 26, 0b00101),),
            fields=(("op", 31, 31), ("fixed", 30, 26), ("imm26", 25, 0)),
        ),
        ArmSpec(
            name="br_blr_ret",
            match=(("eq", 31, 25, 0b1101011),
                   ("eq", 20, 10, 0b11111_000000), ("eq", 4, 0, 0),
                   ("or", ("in", 24, 21, (0b0000, 0b0001, 0b0010)),
                    ("and", ("eq", 24, 21, 0b0100), ("eq", 9, 5, 31)))),
            region=(("eq", 31, 25, 0b1101011),),
            fields=(("fixed", 31, 25), ("opc", 24, 21), ("fixed2", 20, 10),
                    ("rn", 9, 5), ("fixed3", 4, 0)),
        ),
        ArmSpec(
            name="hint",
            match=(("eq", 31, 12, 0b11010101000000110010),
                   ("eq", 4, 0, 0b11111)),
            region=(("eq", 31, 22, 0b1101010100), ("eq", 20, 20, 0)),
            fields=(("fixed", 31, 12), ("crm_op2", 11, 5), ("fixed2", 4, 0)),
        ),
        ArmSpec(
            name="sysreg",
            match=(("eq", 31, 22, 0b1101010100), ("eq", 20, 20, 1)),
            fields=(("fixed", 31, 22), ("l", 21, 21), ("fixed20", 20, 20),
                    ("o0", 19, 19), ("op1", 18, 16), ("crn", 15, 12),
                    ("crm", 11, 8), ("op2", 7, 5), ("rt", 4, 0)),
        ),
        ArmSpec(
            name="hvc",
            match=(("eq", 31, 21, 0b11010100_000),
                   ("in", 4, 0, (0b00001, 0b00010))),
            region=(("eq", 31, 21, 0b11010100_000),),
            fields=(("fixed", 31, 21), ("imm16", 20, 5), ("low", 4, 0)),
        ),
    )


#: Reserved/unmodelled space, hand-carved to complete coverage.  Each carve
#: is proved disjoint from every claim (ISA008) and its enumerated words are
#: checked to raise ``UnknownInstruction`` (ISA007).
_INVALID = (
    # op0 = 00xx: sve/sme/unallocated top rows.
    InvalidRegion("unalloc_op0_00xx", (("eq", 28, 27, 0b00),)),
    # Data-processing immediate rows with no modelled arm.
    InvalidRegion("dp_imm_unalloc", (("in", 28, 23, (0b100011, 0b100111)),)),
    # b.cond space with bit 25/24 set (unallocated + reserved).
    InvalidRegion("bcond_unalloc", (("eq", 31, 26, 0b010101),
                                    ("ne", 25, 24, 0b00))),
    # Branch op0 rows 011/111.
    InvalidRegion("branches_unalloc", (("eq", 30, 29, 0b11),
                                       ("eq", 28, 26, 0b101))),
    # Exception-generation space beyond hvc/svc's [23:21] = 000 column.
    InvalidRegion("exception_unalloc", (("eq", 31, 25, 0b1101010),
                                        ("eq", 24, 24, 0),
                                        ("ne", 23, 21, 0b000))),
    # System space beyond the hint/sysreg [23:22] = 00 column.
    InvalidRegion("system_unalloc", (("eq", 31, 25, 0b1101010),
                                     ("eq", 24, 24, 1),
                                     ("ne", 23, 22, 0b00))),
    # Load/store rows other than the pair box and the main 111000/111001 box.
    InvalidRegion("ldst_unmodelled", (("eq", 27, 27, 1), ("eq", 25, 25, 0),
                                      ("ne", 29, 26, 0b1010),
                                      ("ne", 29, 25, 0b11100))),
    # Register-offset box with reserved low bits ([11:10] != 10).
    InvalidRegion("ldst_reg_residual", (("eq", 29, 24, 0b111000),
                                        ("eq", 21, 21, 1),
                                        ("ne", 11, 10, 0b10))),
    # Add/sub extended-register (bit 21 set) is not modelled.
    InvalidRegion("addsub_ext", (("eq", 28, 24, 0b01011), ("eq", 21, 21, 1))),
    # The whole SIMD/FP plane.
    InvalidRegion("simd_fp", (("eq", 27, 25, 0b111),)),
    # Data-processing register plane 1101: everything outside the five
    # modelled boxes (csel / ccmp / div / rbit / madd).
    InvalidRegion("dp_1101_unalloc", (
        ("eq", 28, 25, 0b1101),
        ("not", ("or",
                 ("and", ("eq", 24, 21, 0b0100), ("eq", 29, 29, 0)),
                 ("and", ("eq", 24, 21, 0b0010), ("eq", 29, 29, 1)),
                 ("and", ("eq", 24, 21, 0b0110), ("eq", 30, 29, 0b00)),
                 ("and", ("eq", 24, 21, 0b0110), ("eq", 30, 29, 0b10)),
                 ("and", ("eq", 24, 21, 0b1000), ("eq", 30, 29, 0b00)))),
    )),
)


def _probes() -> dict:
    from . import encode as e
    from .regs import SYSREG_ENCODINGS

    sysreg_name = next(iter(SYSREG_ENCODINGS))
    return {
        "addsub_imm": (
            e.add_imm(0, 1, 42), e.add_imm(2, 3, 1, shift12=True),
            e.sub_imm(4, 5, 7, sf=0), e.adds_imm(6, 7, 0),
            e.subs_imm(8, 9, 4095), e.cmp_imm(10, 3),
        ),
        "addsub_reg": (
            e.add_reg(0, 1, 2), e.add_reg(3, 4, 5, shift=2, amount=7),
            e.sub_reg(6, 7, 8, sf=0), e.subs_reg(9, 10, 11),
            e.adds_reg(12, 13, 14), e.cmp_reg(15, 16),
        ),
        "logical_reg": (
            e.and_reg(0, 1, 2), e.orr_reg(3, 4, 5, amount=3, shift=1),
            e.eor_reg(6, 7, 8), e.ands_reg(9, 10, 11, sf=0),
            e.tst_reg(12, 13), e.mov_reg(14, 15),
        ),
        "logical_imm": (
            e.and_imm(0, 1, 0xFF), e.ands_imm(2, 3, 0x0F0F0F0F0F0F0F0F),
            e.tst_imm(4, 0x7), e.and_imm(5, 6, 0xFF00FF00, sf=0),
        ),
        "movewide": (
            e.movz(0, 0x1234), e.movn(1, 7, hw=1), e.movk(2, 0xFFFF, hw=3),
            e.mov_imm(3, 99), e.movz(4, 5, sf=0),
        ),
        "bitfield": (
            e.ubfm(0, 1, 3, 5), e.lsr_imm(2, 3, 17), e.lsl_imm(4, 5, 8),
            e.uxtb(6, 7), e.lsr_imm(8, 9, 3, sf=0),
        ),
        "csel": (
            e.csel(0, 1, 2, "eq"), e.csinc(3, 4, 5, "ne"),
            e.cset(6, "lt"), e.csel(7, 8, 9, "hi", sf=0),
        ),
        "ccmp": (
            e.ccmp_reg(0, 1, 0b0100, "eq"), e.ccmp_imm(2, 17, 0b0010, "ne"),
            e.ccmn_reg(3, 4, 0b1000, "ge", sf=0),
        ),
        "div": (e.udiv(0, 1, 2), e.sdiv(3, 4, 5, sf=0)),
        "rbit": (e.rbit(0, 1), e.rbit(2, 3, sf=0)),
        "ldst_imm": (
            e.strb_imm(0, 1, 3), e.ldrb_imm(2, 3), e.str32_imm(4, 5, 8),
            e.ldr32_imm(6, 7, 4), e.str64_imm(8, 9, 16), e.ldr64_imm(10, 11, 8),
        ),
        "ldst_reg": (
            e.ldrb_reg(0, 1, 2), e.strb_reg(3, 4, 5),
            e.ldr64_reg(6, 7, 8), e.str64_reg(9, 10, 11, scaled=False),
        ),
        "ldst_imm9": (
            e.str64_pre(0, 1, -16), e.str64_post(2, 3, 8),
            e.ldr64_pre(4, 5, 16), e.ldr64_post(6, 7, -8),
            e.stur64(8, 9, 1), e.ldur64(10, 11, -1),
        ),
        "ldst_pair": (
            e.stp64(0, 1, 2, 16), e.ldp64(3, 4, 5),
            e.stp64_pre(6, 7, 8, -32), e.ldp64_post(9, 10, 11, 48),
        ),
        "adr": (e.adr(0, 12), e.adr(1, -12), e.adrp(2, 3)),
        "madd": (e.madd(0, 1, 2, 3), e.msub(4, 5, 6, 7), e.mul(8, 9, 10)),
        "cbz": (e.cbz(0, 8), e.cbnz(1, -8, sf=0)),
        "tbz": (e.tbz(0, 5, 8), e.tbnz(1, 40, -8)),
        "bcond": (e.b_cond("eq", 8), e.b_cond("le", -64)),
        "b_bl": (e.b(16), e.bl(-16)),
        "br_blr_ret": (e.br(0), e.blr(1), e.ret(), e.eret()),
        "hint": (e.nop(),),
        "sysreg": (e.msr(sysreg_name, 0), e.mrs(1, sysreg_name)),
        "hvc": (e.hvc(1), e.svc(0x42)),
    }


#: The arms, built once: :mod:`repro.arch.arm.encode` packs through them.
ARMS = _arms()


def build_spec() -> IsaSpec:
    from . import asm, decode

    return IsaSpec(
        arch="arm",
        arms=ARMS,
        invalid=_INVALID,
        decode_arm=decode.decode_arm,
        invalid_exc=decode.UnknownInstruction,
        disassemble=decode.disassemble,
        assemble_line=asm.assemble_line,
        probes=_probes(),
        coverage_shard=(28, 25),
    )
