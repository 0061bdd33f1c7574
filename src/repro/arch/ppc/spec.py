"""Declarative ISA specification for the modelled OpenPOWER subset.

This is the input to :mod:`repro.analysis.isaspec`: every decode arm of
:mod:`repro.arch.ppc.decode` restated as an exact bitvector claim, plus
the defined-invalid space (unallocated primary opcodes; reserved minor
encodings fall out as region residuals).  The validator proves the claims
pairwise disjoint and jointly covering, and grounds them against the
hand-written decoder on witness and probe words.

Each arm's field table is the only description of its bits:
:mod:`repro.arch.ppc.encode` packs every word through it
(:mod:`repro.arch.encoding`), and the validator checks it by reassembling
decoder witnesses — the decoder and disassembler stay independent of it.
"""

from __future__ import annotations

from ...analysis.isaspec import ArmSpec, InvalidRegion, IsaSpec

# Primary opcodes (bits [31:26]) of the modelled subset.
_MAJORS = {
    "cmpli": 10, "cmpi": 11, "addi": 14, "addis": 15, "bc": 16, "b": 18,
    "xl": 19, "ori": 24, "oris": 25, "xori": 26, "xoris": 27, "andi": 28,
    "andis": 29, "x": 31, "lwz": 32, "lbz": 34, "stw": 36, "stb": 38,
    "ld": 58, "std": 62,
}

#: Extended opcodes of major 31 (bits [10:1]).
_XOS = {"cmp": 0, "and": 28, "cmpl": 32, "subf": 40, "add": 266,
        "xor": 316, "mfspr": 339, "or": 444, "mtspr": 467}

#: SPR instruction-field values for XER(1), LR(8), CTR(9) — swapped halves.
_SPR_FIELDS = (32, 256, 288)


def _major(name: str) -> tuple:
    return ("eq", 31, 26, _MAJORS[name])


_MAJOR = ("major", 31, 26)


def _d_form(top: str, imm: str) -> tuple:
    return (_MAJOR, (top, 25, 21), ("ra", 20, 16), (imm, 15, 0))


def _ds_form(top: str) -> tuple:
    return (_MAJOR, (top, 25, 21), ("ra", 20, 16), ("ds", 15, 2), ("xo", 1, 0))


def _cmp_form(last: tuple) -> tuple:
    return (_MAJOR, ("bf", 25, 23), ("res", 22, 22), ("l", 21, 21),
            ("ra", 20, 16)) + last


_XL_FORM = (_MAJOR, ("bo", 25, 21), ("bi", 20, 16), ("bh", 15, 11),
            ("xo", 10, 1), ("lk", 0, 0))
_XO_FORM = (_MAJOR, ("rt", 25, 21), ("ra", 20, 16), ("rb", 15, 11),
            ("oe", 10, 10), ("xo", 9, 1), ("rc", 0, 0))
_X_LOGIC = (_MAJOR, ("rs", 25, 21), ("ra", 20, 16), ("rb", 15, 11),
            ("xo", 10, 1), ("rc", 0, 0))
_X_CMP = _cmp_form((("rb", 15, 11), ("xo", 10, 1), ("rc", 0, 0)))


def _x_spr(top: str) -> tuple:
    return (_MAJOR, (top, 25, 21), ("spr", 20, 11), ("xo", 10, 1), ("rc", 0, 0))


def _arms() -> tuple:
    arms = [
        # -- D-form arithmetic / logical immediates (whole-major claims) --
        ArmSpec(name="addi", match=(_major("addi"),),
                fields=_d_form("rt", "si")),
        ArmSpec(name="addis", match=(_major("addis"),),
                fields=_d_form("rt", "si")),
        ArmSpec(name="ori", match=(_major("ori"),),
                fields=_d_form("rs", "ui")),
        ArmSpec(name="oris", match=(_major("oris"),),
                fields=_d_form("rs", "ui")),
        ArmSpec(name="xori", match=(_major("xori"),),
                fields=_d_form("rs", "ui")),
        ArmSpec(name="xoris", match=(_major("xoris"),),
                fields=_d_form("rs", "ui")),
        ArmSpec(name="andi", match=(_major("andi"),),
                fields=_d_form("rs", "ui")),
        ArmSpec(name="andis", match=(_major("andis"),),
                fields=_d_form("rs", "ui")),
        # -- D-form compares (bit 22 reserved-zero) --
        ArmSpec(
            name="cmpi",
            match=(_major("cmpi"), ("eq", 22, 22, 0)),
            region=(_major("cmpi"),),
            fields=_cmp_form((("si", 15, 0),)),
        ),
        ArmSpec(
            name="cmpli",
            match=(_major("cmpli"), ("eq", 22, 22, 0)),
            region=(_major("cmpli"),),
            fields=_cmp_form((("ui", 15, 0),)),
        ),
        # -- D-form loads / stores (whole-major claims) --
        ArmSpec(name="lwz", match=(_major("lwz"),),
                fields=_d_form("rt", "d")),
        ArmSpec(name="lbz", match=(_major("lbz"),),
                fields=_d_form("rt", "d")),
        ArmSpec(name="stw", match=(_major("stw"),),
                fields=_d_form("rs", "d")),
        ArmSpec(name="stb", match=(_major("stb"),),
                fields=_d_form("rs", "d")),
        # -- DS-form doubleword loads / stores (XO bits [1:0] zero) --
        ArmSpec(
            name="ld",
            match=(_major("ld"), ("eq", 1, 0, 0)),
            region=(_major("ld"),),
            fields=_ds_form("rt"),
        ),
        ArmSpec(
            name="std",
            match=(_major("std"), ("eq", 1, 0, 0)),
            region=(_major("std"),),
            fields=_ds_form("rs"),
        ),
        # -- branches (relative only: AA == 0) --
        ArmSpec(
            name="b",
            match=(_major("b"), ("eq", 1, 1, 0)),
            region=(_major("b"),),
            fields=(_MAJOR, ("li", 25, 2), ("aa", 1, 1), ("lk", 0, 0)),
        ),
        ArmSpec(
            name="bc",
            match=(_major("bc"), ("eq", 1, 1, 0)),
            region=(_major("bc"),),
            fields=(_MAJOR, ("bo", 25, 21), ("bi", 20, 16), ("bd", 15, 2),
                    ("aa", 1, 1), ("lk", 0, 0)),
        ),
        ArmSpec(
            name="bclr",
            match=(_major("xl"), ("eq", 15, 11, 0), ("eq", 10, 1, 16)),
            region=(_major("xl"),),
            fields=_XL_FORM,
        ),
        ArmSpec(
            name="bcctr",
            # BO[2] (bit 23) must be set: bcctr may not decrement CTR.
            match=(_major("xl"), ("eq", 15, 11, 0), ("eq", 10, 1, 528),
                   ("eq", 23, 23, 1)),
            region=(_major("xl"),),
            fields=_XL_FORM,
        ),
        # -- major 31: XO-form arithmetic (OE and Rc reserved-zero) --
        ArmSpec(
            name="add",
            match=(_major("x"), ("eq", 10, 1, _XOS["add"]), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_XO_FORM,
        ),
        ArmSpec(
            name="subf",
            match=(_major("x"), ("eq", 10, 1, _XOS["subf"]), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_XO_FORM,
        ),
        # -- major 31: X-form logicals (Rc reserved-zero) --
        ArmSpec(
            name="and",
            match=(_major("x"), ("eq", 10, 1, _XOS["and"]), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_X_LOGIC,
        ),
        ArmSpec(
            name="or",
            match=(_major("x"), ("eq", 10, 1, _XOS["or"]), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_X_LOGIC,
        ),
        ArmSpec(
            name="xor",
            match=(_major("x"), ("eq", 10, 1, _XOS["xor"]), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_X_LOGIC,
        ),
        # -- major 31: X-form compares (bit 22 and Rc reserved-zero) --
        ArmSpec(
            name="cmp",
            match=(_major("x"), ("eq", 10, 1, _XOS["cmp"]),
                   ("eq", 22, 22, 0), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_X_CMP,
        ),
        ArmSpec(
            name="cmpl",
            match=(_major("x"), ("eq", 10, 1, _XOS["cmpl"]),
                   ("eq", 22, 22, 0), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_X_CMP,
        ),
        # -- major 31: SPR moves (only XER/LR/CTR modelled) --
        ArmSpec(
            name="mtspr",
            match=(_major("x"), ("eq", 10, 1, _XOS["mtspr"]),
                   ("in", 20, 11, _SPR_FIELDS), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_x_spr("rs"),
        ),
        ArmSpec(
            name="mfspr",
            match=(_major("x"), ("eq", 10, 1, _XOS["mfspr"]),
                   ("in", 20, 11, _SPR_FIELDS), ("eq", 0, 0, 0)),
            region=(_major("x"),),
            fields=_x_spr("rt"),
        ),
    ]
    return tuple(arms)


def _probes() -> dict:
    from . import encode as e

    return {
        "addi": (e.addi(3, 4, -5), e.li(5, 100), e.addi(0, 1, 32767)),
        "addis": (e.addis(3, 4, 17), e.lis(6, -1)),
        "ori": (e.ori(3, 4, 0xFFFF), e.nop()),
        "oris": (e.oris(5, 6, 1),),
        "xori": (e.xori(7, 8, 0xF0F0),),
        "xoris": (e.xoris(9, 10, 0x8000),),
        "andi": (e.andi_(11, 12, 0xFF),),
        "andis": (e.andis_(13, 14, 3),),
        "cmpi": (e.cmpdi(0, 3, -1), e.cmpwi(7, 4, 42)),
        "cmpli": (e.cmpldi(1, 5, 9), e.cmplwi(2, 6, 0xFFFF)),
        "cmp": (e.cmpd(0, 3, 4), e.cmpw(3, 5, 6)),
        "cmpl": (e.cmpld(1, 7, 8), e.cmplw(4, 9, 10)),
        "lwz": (e.lwz(3, 4, 8), e.lwz(5, 0, -4)),
        "lbz": (e.lbz(6, 7, 1),),
        "stw": (e.stw(8, 9, 12),),
        "stb": (e.stb(10, 11, -3),),
        "ld": (e.ld(3, 4, 16), e.ld(5, 6, -8)),
        "std": (e.std(7, 8, 24),),
        "b": (e.b(8), e.bl(-12), e.b(0)),
        "bc": (e.bdnz(-8), e.beq(0, 12), e.bne(2, -16), e.bc(20, 1, 4),
               e.bcl(16, 0, 8)),
        "bclr": (e.blr(), e.blrl(), e.bclr(12, 2)),
        "bcctr": (e.bctr(), e.bctrl(), e.bcctr(12, 6)),
        "add": (e.add(3, 4, 5),),
        "subf": (e.subf(6, 7, 8),),
        "and": (e.and_(9, 10, 11),),
        "or": (e.or_(12, 13, 14), e.mr(15, 16)),
        "xor": (e.xor(17, 18, 19),),
        "mtspr": (e.mtctr(3), e.mtlr(4), e.mtxer(5)),
        "mfspr": (e.mfctr(6), e.mflr(7), e.mfxer(8)),
    }


#: The arms, built once: :mod:`repro.arch.ppc.encode` packs through them.
ARMS = _arms()


def build_spec() -> IsaSpec:
    from . import asm, decode

    return IsaSpec(
        arch="ppc",
        arms=ARMS,
        invalid=(
            InvalidRegion(
                name="unallocated_major",
                clauses=(("notin", 31, 26, tuple(sorted(_MAJORS.values()))),),
            ),
        ),
        decode_arm=decode.decode_arm,
        invalid_exc=decode.UnknownInstruction,
        disassemble=decode.disassemble,
        assemble_line=asm.assemble_line,
        probes=_probes(),
        coverage_shard=(31, 26),
    )
