"""Disassembler for the modelled OpenPOWER fixed-point subset.

Primary-opcode (bits [31:26]) classification with extended-opcode dispatch
for majors 19 (XL branch forms) and 31 (X/XO forms).  The output grammar
is the single source of truth for :mod:`repro.arch.ppc.asm`: every line
this module emits reassembles to the identical word.

Mnemonic aliases follow the standard extended forms: ``li``/``lis`` for
``addi``/``addis`` with RA=0, ``nop`` for ``ori r0, r0, 0``, ``mr`` for
``or`` with RS=RB, ``bdnz``/``beq``-family for the exact canonical BO
encodings, and ``blr``/``bctr`` for the unconditional XL branches.
"""

from __future__ import annotations

from .regs import FIELD_SPR, SPR_REGISTERS


class UnknownInstruction(Exception):
    """The opcode is outside the modelled subset."""


def _f(op: int, hi: int, lo: int) -> int:
    return (op >> lo) & ((1 << (hi - lo + 1)) - 1)


def _sx(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


#: Majors of the D-form logical-immediate family: major -> mnemonic.
_LOGIC_IMM_MNEMONICS = {
    24: "ori", 25: "oris", 26: "xori", 27: "xoris", 28: "andi.", 29: "andis.",
}
#: Same family keyed by decode-arm name (no dots — arm names are identifiers).
_LOGIC_IMM_ARMS = {
    24: "ori", 25: "oris", 26: "xori", 27: "xoris", 28: "andi", 29: "andis",
}

#: Extended opcodes (bits [10:1]) of major 31.
_XO_ADD = 266
_XO_SUBF = 40
_XO_AND = 28
_XO_OR = 444
_XO_XOR = 316
_XO_CMP = 0
_XO_CMPL = 32
_XO_MTSPR = 467
_XO_MFSPR = 339

_MAJOR31_ARMS = {
    _XO_ADD: "add", _XO_SUBF: "subf", _XO_AND: "and", _XO_OR: "or",
    _XO_XOR: "xor", _XO_CMP: "cmp", _XO_CMPL: "cmpl",
    _XO_MTSPR: "mtspr", _XO_MFSPR: "mfspr",
}


def _classify(op: int) -> str:
    """The decode-arm name claiming ``op``; raises on unmodelled words."""
    major = _f(op, 31, 26)
    if major in (10, 11):
        if _f(op, 22, 22):
            raise UnknownInstruction(f"reserved compare bit 22 in {op:#010x}")
        return "cmpli" if major == 10 else "cmpi"
    if major == 14:
        return "addi"
    if major == 15:
        return "addis"
    if major == 16:
        if _f(op, 1, 1):
            raise UnknownInstruction(f"absolute bc not modelled: {op:#010x}")
        return "bc"
    if major == 18:
        if _f(op, 1, 1):
            raise UnknownInstruction(f"absolute b not modelled: {op:#010x}")
        return "b"
    if major == 19:
        if _f(op, 15, 11):
            raise UnknownInstruction(f"reserved XL bits in {op:#010x}")
        xo = _f(op, 10, 1)
        if xo == 16:
            return "bclr"
        if xo == 528:
            if not _f(op, 23, 23):  # BO[2]: bcctr must not decrement CTR
                raise UnknownInstruction(f"bcctr with CTR decrement: {op:#010x}")
            return "bcctr"
        raise UnknownInstruction(f"XL-form XO {xo} not modelled")
    if major in _LOGIC_IMM_ARMS:
        return _LOGIC_IMM_ARMS[major]
    if major == 31:
        if _f(op, 0, 0):
            raise UnknownInstruction(f"Rc/reserved bit set in {op:#010x}")
        xo = _f(op, 10, 1)
        arm = _MAJOR31_ARMS.get(xo)
        if arm is None:
            raise UnknownInstruction(f"X/XO-form XO {xo} not modelled")
        if arm in ("cmp", "cmpl") and _f(op, 22, 22):
            raise UnknownInstruction(f"reserved compare bit 22 in {op:#010x}")
        if arm in ("mtspr", "mfspr") and _f(op, 20, 11) not in FIELD_SPR:
            raise UnknownInstruction(f"SPR field not modelled in {op:#010x}")
        return arm
    if major == 32:
        return "lwz"
    if major == 34:
        return "lbz"
    if major == 36:
        return "stw"
    if major == 38:
        return "stb"
    if major in (58, 62):
        if _f(op, 1, 0):
            raise UnknownInstruction(f"DS-form XO not modelled in {op:#010x}")
        return "ld" if major == 58 else "std"
    raise UnknownInstruction(f"primary opcode {major} not modelled")


# -- per-arm renderers -------------------------------------------------------


def _render_addi(op: int) -> str:
    rt, ra, si = _f(op, 25, 21), _f(op, 20, 16), _sx(_f(op, 15, 0), 16)
    if ra == 0:
        return f"li r{rt}, {si}"
    return f"addi r{rt}, r{ra}, {si}"


def _render_addis(op: int) -> str:
    rt, ra, si = _f(op, 25, 21), _f(op, 20, 16), _sx(_f(op, 15, 0), 16)
    if ra == 0:
        return f"lis r{rt}, {si}"
    return f"addis r{rt}, r{ra}, {si}"


def _render_logic_imm(op: int) -> str:
    if op == 0x60000000:
        return "nop"
    mnemonic = _LOGIC_IMM_MNEMONICS[_f(op, 31, 26)]
    rs, ra, ui = _f(op, 25, 21), _f(op, 20, 16), _f(op, 15, 0)
    return f"{mnemonic} r{ra}, r{rs}, {ui}"


def _render_cmpi(op: int) -> str:
    unsigned = _f(op, 31, 26) == 10
    bf, ell, ra = _f(op, 25, 23), _f(op, 21, 21), _f(op, 20, 16)
    if unsigned:
        mnemonic, imm = ("cmpldi" if ell else "cmplwi"), _f(op, 15, 0)
    else:
        mnemonic, imm = ("cmpdi" if ell else "cmpwi"), _sx(_f(op, 15, 0), 16)
    return f"{mnemonic} cr{bf}, r{ra}, {imm}"


def _render_cmp(op: int) -> str:
    unsigned = _f(op, 10, 1) == _XO_CMPL
    bf, ell, ra, rb = _f(op, 25, 23), _f(op, 21, 21), _f(op, 20, 16), _f(op, 15, 11)
    mnemonic = {
        (False, 1): "cmpd", (False, 0): "cmpw",
        (True, 1): "cmpld", (True, 0): "cmplw",
    }[(unsigned, ell)]
    return f"{mnemonic} cr{bf}, r{ra}, r{rb}"


_D_MEM_MNEMONICS = {32: "lwz", 34: "lbz", 36: "stw", 38: "stb"}


def _render_d_mem(op: int) -> str:
    mnemonic = _D_MEM_MNEMONICS[_f(op, 31, 26)]
    rt, ra, d = _f(op, 25, 21), _f(op, 20, 16), _sx(_f(op, 15, 0), 16)
    return f"{mnemonic} r{rt}, {d}(r{ra})"


def _render_ds_mem(op: int) -> str:
    mnemonic = "ld" if _f(op, 31, 26) == 58 else "std"
    rt, ra = _f(op, 25, 21), _f(op, 20, 16)
    ds = _sx(_f(op, 15, 2), 14) << 2
    return f"{mnemonic} r{rt}, {ds}(r{ra})"


def _render_b(op: int) -> str:
    offset = _sx(_f(op, 25, 2), 24) << 2
    return f"{'bl' if _f(op, 0, 0) else 'b'} {offset}"


#: Extended branch mnemonics for the canonical BO encodings: BO=12 branches
#: when the CR bit (LT/GT/EQ/SO by BI mod 4) is set, BO=4 when clear.
_COND_SET = {0: "blt", 1: "bgt", 2: "beq", 3: "bso"}
_COND_CLR = {0: "bge", 1: "ble", 2: "bne", 3: "bns"}


def _render_bc(op: int) -> str:
    bo, bi = _f(op, 25, 21), _f(op, 20, 16)
    bd = _sx(_f(op, 15, 2), 14) << 2
    suffix = "l" if _f(op, 0, 0) else ""
    if bo == 16 and bi == 0:
        return f"bdnz{suffix} {bd}"
    if bo == 12:
        return f"{_COND_SET[bi & 3]}{suffix} cr{bi >> 2}, {bd}"
    if bo == 4:
        return f"{_COND_CLR[bi & 3]}{suffix} cr{bi >> 2}, {bd}"
    return f"bc{suffix} {bo}, {bi}, {bd}"


def _render_bclr(op: int) -> str:
    bo, bi = _f(op, 25, 21), _f(op, 20, 16)
    suffix = "l" if _f(op, 0, 0) else ""
    if bo == 20 and bi == 0:
        return f"blr{suffix}"
    return f"bclr{suffix} {bo}, {bi}"


def _render_bcctr(op: int) -> str:
    bo, bi = _f(op, 25, 21), _f(op, 20, 16)
    suffix = "l" if _f(op, 0, 0) else ""
    if bo == 20 and bi == 0:
        return f"bctr{suffix}"
    return f"bcctr{suffix} {bo}, {bi}"


def _render_xo_arith(op: int) -> str:
    mnemonic = "add" if _f(op, 10, 1) == _XO_ADD else "subf"
    rt, ra, rb = _f(op, 25, 21), _f(op, 20, 16), _f(op, 15, 11)
    return f"{mnemonic} r{rt}, r{ra}, r{rb}"


_X_LOGIC_MNEMONICS = {_XO_AND: "and", _XO_OR: "or", _XO_XOR: "xor"}


def _render_x_logic(op: int) -> str:
    xo = _f(op, 10, 1)
    rs, ra, rb = _f(op, 25, 21), _f(op, 20, 16), _f(op, 15, 11)
    if xo == _XO_OR and rs == rb:
        return f"mr r{ra}, r{rs}"
    return f"{_X_LOGIC_MNEMONICS[xo]} r{ra}, r{rs}, r{rb}"


def _render_spr(op: int) -> str:
    spr = FIELD_SPR[_f(op, 20, 11)]
    reg = SPR_REGISTERS[spr].lower()
    direction = "mt" if _f(op, 10, 1) == _XO_MTSPR else "mf"
    return f"{direction}{reg} r{_f(op, 25, 21)}"


_RENDERERS = {
    "addi": _render_addi, "addis": _render_addis,
    "ori": _render_logic_imm, "oris": _render_logic_imm,
    "xori": _render_logic_imm, "xoris": _render_logic_imm,
    "andi": _render_logic_imm, "andis": _render_logic_imm,
    "cmpi": _render_cmpi, "cmpli": _render_cmpi,
    "cmp": _render_cmp, "cmpl": _render_cmp,
    "lwz": _render_d_mem, "lbz": _render_d_mem,
    "stw": _render_d_mem, "stb": _render_d_mem,
    "ld": _render_ds_mem, "std": _render_ds_mem,
    "b": _render_b, "bc": _render_bc,
    "bclr": _render_bclr, "bcctr": _render_bcctr,
    "add": _render_xo_arith, "subf": _render_xo_arith,
    "and": _render_x_logic, "or": _render_x_logic, "xor": _render_x_logic,
    "mtspr": _render_spr, "mfspr": _render_spr,
}


def disassemble(op: int) -> str:
    """The canonical assembly text of ``op``; raises on unmodelled words."""
    return _RENDERERS[_classify(op)](op)


def try_disassemble(op: int) -> str:
    try:
        return disassemble(op)
    except UnknownInstruction:
        return f".word {op:#010x}"


def decode_arm(op: int) -> str:
    """The decoder arm (instruction class) that claims ``op``.

    Raises :class:`UnknownInstruction` exactly when :func:`disassemble`
    does; round-trip tests use this for generator-coverage assertions.
    """
    return _classify(op)


#: Every decode-arm name.  The architecture registry exposes this as the
#: authoritative arm list for coverage maps.
DECODE_ARMS = (
    "addi", "addis", "ori", "oris", "xori", "xoris", "andi", "andis",
    "cmpi", "cmpli", "cmp", "cmpl", "add", "subf", "and", "or", "xor",
    "mtspr", "mfspr", "lwz", "lbz", "stw", "stb", "ld", "std",
    "b", "bc", "bclr", "bcctr",
)
