"""A64 decoder / disassembler for the modelled instruction subset.

Produces objdump-style mnemonics for the opcodes the model executes, used by
the frontend's annotated listings and by error messages.  The decoder is
deliberately independent of the encoder (separate tables), so
encode→decode roundtrip tests exercise both.
"""

from __future__ import annotations

from .regs import ENCODING_TO_SYSREG

COND_NAMES = [
    "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
    "hi", "ls", "ge", "lt", "gt", "le", "al", "nv",
]


def _x(n: int, sf: int = 1) -> str:
    prefix = "x" if sf else "w"
    if n == 31:
        return f"{prefix}zr"
    return f"{prefix}{n}"


def _sp_or_x(n: int, sf: int = 1) -> str:
    if n == 31:
        return "sp" if sf else "wsp"
    return _x(n, sf)


def _simm(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _f(op: int, hi: int, lo: int) -> int:
    return (op >> lo) & ((1 << (hi - lo + 1)) - 1)


class UnknownInstruction(Exception):
    """The opcode is outside the modelled subset."""


def disassemble(op: int) -> str:
    """Decode one 32-bit opcode to a mnemonic string."""
    for matcher in _DECODERS:
        text = matcher(op)
        if text is not None:
            return text
    raise UnknownInstruction(f"{op:#010x}")


def try_disassemble(op: int) -> str:
    try:
        return disassemble(op)
    except UnknownInstruction:
        return f".word {op:#010x}"


def decode_arm(op: int) -> str:
    """The name of the decoder arm that claims ``op`` (e.g. ``"addsub_imm"``).

    The assembler's round-trip tests use this to assert that their generator
    reaches every arm of the decoder.
    """
    for matcher in _DECODERS:
        if matcher(op) is not None:
            return matcher.__name__.lstrip("_")
    raise UnknownInstruction(f"{op:#010x}")


# -- decoder clauses ----------------------------------------------------------


def _addsub_imm(op: int) -> str | None:
    if _f(op, 28, 23) != 0b100010:
        return None
    sf, is_sub, s = _f(op, 31, 31), _f(op, 30, 30), _f(op, 29, 29)
    imm12, sh = _f(op, 21, 10), _f(op, 22, 22)
    # A shifted zero would print identically to an unshifted zero; spell out
    # the shift in that one degenerate case so the text stays invertible.
    imm = f"#{imm12}, lsl #12" if sh and not imm12 else f"#{imm12 << (12 if sh else 0)}"
    rn, rd = _f(op, 9, 5), _f(op, 4, 0)
    if s and rd == 31:
        return f"cmp {_sp_or_x(rn, sf)}, {imm}" if is_sub else f"cmn {_sp_or_x(rn, sf)}, {imm}"
    name = ("sub" if is_sub else "add") + ("s" if s else "")
    rd_s = _x(rd, sf) if s else _sp_or_x(rd, sf)
    return f"{name} {rd_s}, {_sp_or_x(rn, sf)}, {imm}"


def _addsub_reg(op: int) -> str | None:
    if _f(op, 28, 24) != 0b01011 or _f(op, 21, 21) != 0:
        return None
    sf, is_sub, s = _f(op, 31, 31), _f(op, 30, 30), _f(op, 29, 29)
    rm, rn, rd = _f(op, 20, 16), _f(op, 9, 5), _f(op, 4, 0)
    amount = _f(op, 15, 10)
    shift_type = _f(op, 23, 22)
    if shift_type == 0b11:  # reserved
        return None
    shift = ["lsl", "lsr", "asr"][shift_type]
    # "lsr #0" etc. is printed even for a zero amount: it is a different
    # word from the unshifted form and must not share its text.
    suffix = f", {shift} #{amount}" if amount or shift_type else ""
    if s and rd == 31 and is_sub:
        return f"cmp {_x(rn, sf)}, {_x(rm, sf)}{suffix}"
    name = ("sub" if is_sub else "add") + ("s" if s else "")
    return f"{name} {_x(rd, sf)}, {_x(rn, sf)}, {_x(rm, sf)}{suffix}"


def _logical_reg(op: int) -> str | None:
    if _f(op, 28, 24) != 0b01010:
        return None
    sf, opc = _f(op, 31, 31), _f(op, 30, 29)
    invert = _f(op, 21, 21)
    rm, rn, rd = _f(op, 20, 16), _f(op, 9, 5), _f(op, 4, 0)
    amount = _f(op, 15, 10)
    shift_type = _f(op, 23, 22)
    shift = ["lsl", "lsr", "asr", "ror"][shift_type]
    name = [["and", "bic"], ["orr", "orn"], ["eor", "eon"], ["ands", "bics"]][opc][invert]
    suffix = f", {shift} #{amount}" if amount or shift_type else ""
    if name == "orr" and rn == 31 and not amount and not shift_type:
        return f"mov {_x(rd, sf)}, {_x(rm, sf)}"
    if name == "ands" and rd == 31:
        return f"tst {_x(rn, sf)}, {_x(rm, sf)}{suffix}"
    return f"{name} {_x(rd, sf)}, {_x(rn, sf)}, {_x(rm, sf)}{suffix}"


def _logical_imm(op: int) -> str | None:
    if _f(op, 28, 23) != 0b100100:
        return None
    from .model import decode_bit_masks

    sf, opc = _f(op, 31, 31), _f(op, 30, 29)
    immn, immr, imms = _f(op, 22, 22), _f(op, 21, 16), _f(op, 15, 10)
    rn, rd = _f(op, 9, 5), _f(op, 4, 0)
    if not sf and immn:
        return None  # reserved for 32-bit
    # Reject non-canonical rotations (immr bits above the element size are
    # ignored by DecodeBitMasks, so accepting them would alias encodings).
    combined = (immn << 6) | (~imms & 0x3F)
    esize = 1 << (combined.bit_length() - 1) if combined else 0
    if esize < 2 or immr >= esize:
        return None
    try:
        value = decode_bit_masks(immn, imms, immr, 64 if sf else 32)
    except ValueError:
        return None
    name = ["and", "orr", "eor", "ands"][opc]
    if name == "ands" and rd == 31:
        return f"tst {_x(rn, sf)}, #{value:#x}"
    return f"{name} {_x(rd, sf)}, {_x(rn, sf)}, #{value:#x}"


def _movewide(op: int) -> str | None:
    if _f(op, 28, 23) != 0b100101:
        return None
    sf, opc = _f(op, 31, 31), _f(op, 30, 29)
    hw, imm16, rd = _f(op, 22, 21), _f(op, 20, 5), _f(op, 4, 0)
    name = {0b00: "movn", 0b10: "movz", 0b11: "movk"}.get(opc)
    if name is None:
        return None
    shift = f", lsl #{hw * 16}" if hw else ""
    if name == "movz" and not hw:
        return f"mov {_x(rd, sf)}, #{imm16:#x}"
    return f"{name} {_x(rd, sf)}, #{imm16:#x}{shift}"


def _bitfield(op: int) -> str | None:
    if _f(op, 28, 23) != 0b100110:
        return None
    sf, opc = _f(op, 31, 31), _f(op, 30, 29)
    immr, imms = _f(op, 21, 16), _f(op, 15, 10)
    rn, rd = _f(op, 9, 5), _f(op, 4, 0)
    if _f(op, 22, 22) != sf:  # N must equal sf for valid encodings
        return None
    if not sf and (immr >= 32 or imms >= 32):
        return None
    width = 64 if sf else 32
    if opc == 0b10:  # UBFM aliases
        if imms == width - 1:
            return f"lsr {_x(rd, sf)}, {_x(rn, sf)}, #{immr}"
        if imms + 1 == immr:
            return f"lsl {_x(rd, sf)}, {_x(rn, sf)}, #{width - immr}"
        if not sf and immr == 0 and imms == 7:
            return f"uxtb {_x(rd, 0)}, {_x(rn, 0)}"
        return f"ubfm {_x(rd, sf)}, {_x(rn, sf)}, #{immr}, #{imms}"
    if opc == 0b00:
        if imms == width - 1:
            return f"asr {_x(rd, sf)}, {_x(rn, sf)}, #{immr}"
        return f"sbfm {_x(rd, sf)}, {_x(rn, sf)}, #{immr}, #{imms}"
    return None


def _csel(op: int) -> str | None:
    if _f(op, 28, 21) != 0b11010100 or _f(op, 29, 29) or _f(op, 11, 11):
        return None
    sf, neg = _f(op, 31, 31), _f(op, 30, 30)
    rm, cond = _f(op, 20, 16), _f(op, 15, 12)
    o2, rn, rd = _f(op, 10, 10), _f(op, 9, 5), _f(op, 4, 0)
    name = [["csel", "csinc"], ["csinv", "csneg"]][neg][o2]
    if name == "csinc" and rn == 31 and rm == 31:
        return f"cset {_x(rd, sf)}, {COND_NAMES[cond ^ 1]}"
    return f"{name} {_x(rd, sf)}, {_x(rn, sf)}, {_x(rm, sf)}, {COND_NAMES[cond]}"


def _ccmp(op: int) -> str | None:
    if _f(op, 29, 21) != 0b1_11010010 or _f(op, 10, 10) or _f(op, 4, 4):
        return None
    sf = _f(op, 31, 31)
    name = "ccmp" if _f(op, 30, 30) else "ccmn"
    rn, nzcv, cond = _f(op, 9, 5), _f(op, 3, 0), COND_NAMES[_f(op, 15, 12)]
    if _f(op, 11, 11):
        return f"{name} {_x(rn, sf)}, #{_f(op, 20, 16)}, #{nzcv}, {cond}"
    return f"{name} {_x(rn, sf)}, {_x(_f(op, 20, 16), sf)}, #{nzcv}, {cond}"


def _div(op: int) -> str | None:
    if _f(op, 30, 21) != 0b00_11010110 or _f(op, 15, 11) != 0b00001:
        return None
    sf = _f(op, 31, 31)
    name = "sdiv" if _f(op, 10, 10) else "udiv"
    return (
        f"{name} {_x(_f(op, 4, 0), sf)}, {_x(_f(op, 9, 5), sf)}, "
        f"{_x(_f(op, 20, 16), sf)}"
    )


def _rbit(op: int) -> str | None:
    if _f(op, 30, 10) != 0b1_0_11010110_00000_000000:
        return None
    sf = _f(op, 31, 31)
    return f"rbit {_x(_f(op, 4, 0), sf)}, {_x(_f(op, 9, 5), sf)}"


_LDST_NAMES = {
    (0b00, 0b00): "strb", (0b00, 0b01): "ldrb", (0b00, 0b10): "ldrsb",
    (0b01, 0b00): "strh", (0b01, 0b01): "ldrh", (0b01, 0b10): "ldrsh",
    (0b10, 0b00): "str", (0b10, 0b01): "ldr", (0b10, 0b10): "ldrsw",
    (0b11, 0b00): "str", (0b11, 0b01): "ldr",
}

# Unscaled (imm9, no-writeback) forms get distinct objdump-style names so a
# scaled "ldrh w0, [x1, #2]" and its unscaled twin never share text.
_UNSCALED_NAMES = {
    "ldr": "ldur", "str": "stur", "ldrb": "ldurb", "strb": "sturb",
    "ldrh": "ldurh", "strh": "sturh", "ldrsb": "ldursb",
    "ldrsh": "ldursh", "ldrsw": "ldursw",
}


def _ldst_imm(op: int) -> str | None:
    if _f(op, 29, 24) != 0b111001:
        return None
    size, opc = _f(op, 31, 30), _f(op, 23, 22)
    name = _LDST_NAMES.get((size, opc))
    if name is None:
        return None
    rt, rn = _f(op, 4, 0), _f(op, 9, 5)
    offset = _f(op, 21, 10) << size
    sf = 1 if size == 0b11 or name.endswith("sw") or opc == 0b10 else 0
    off = f", #{offset}" if offset else ""
    return f"{name} {_x(rt, sf)}, [{_sp_or_x(rn)}{off}]"


def _ldst_reg(op: int) -> str | None:
    if _f(op, 29, 24) != 0b111000 or _f(op, 21, 21) != 1 or _f(op, 11, 10) != 0b10:
        return None
    size, opc = _f(op, 31, 30), _f(op, 23, 22)
    name = _LDST_NAMES.get((size, opc))
    if name is None:
        return None
    rt, rn, rm = _f(op, 4, 0), _f(op, 9, 5), _f(op, 20, 16)
    s = _f(op, 12, 12)
    option = _f(op, 15, 13)
    sf = 1 if size == 0b11 else 0
    ext = {0b011: "lsl", 0b010: "uxtw", 0b110: "sxtw"}.get(option)
    if ext is None:  # reserved extend options
        return None
    # S chooses between shift #0 and no shift — distinct words, so the
    # amount is printed whenever S is set, even when it is zero.
    amount = f" #{size}" if s else ""
    mod = f", {ext}{amount}" if s or ext != "lsl" else ""
    return f"{name} {_x(rt, sf)}, [{_sp_or_x(rn)}, {_x(rm)}{mod}]"


def _ldst_imm9(op: int) -> str | None:
    if _f(op, 29, 24) != 0b111000 or _f(op, 21, 21) != 0:
        return None
    mode = _f(op, 11, 10)
    if mode == 0b10:
        return None
    size, opc = _f(op, 31, 30), _f(op, 23, 22)
    name = _LDST_NAMES.get((size, opc))
    if name is None:
        return None
    rt, rn = _f(op, 4, 0), _f(op, 9, 5)
    imm = _simm(_f(op, 20, 12), 9)
    sf = 1 if size == 0b11 or opc == 0b10 else 0
    if mode == 0b00:
        base = _UNSCALED_NAMES.get(name, name)
        return f"{base} {_x(rt, sf)}, [{_sp_or_x(rn)}, #{imm}]"
    if mode == 0b01:
        return f"{name} {_x(rt, sf)}, [{_sp_or_x(rn)}], #{imm}"
    return f"{name} {_x(rt, sf)}, [{_sp_or_x(rn)}, #{imm}]!"


def _ldst_pair(op: int) -> str | None:
    if _f(op, 29, 26) != 0b1010 or _f(op, 31, 30) not in (0b00, 0b10):
        return None
    mode = _f(op, 25, 23)
    if mode not in (0b001, 0b010, 0b011):
        return None
    sf = 1 if _f(op, 31, 30) == 0b10 else 0
    name = "ldp" if _f(op, 22, 22) else "stp"
    scale = 3 if sf else 2
    imm = _simm(_f(op, 21, 15), 7) << scale
    rt, rt2, rn = _f(op, 4, 0), _f(op, 14, 10), _f(op, 9, 5)
    regs = f"{_x(rt, sf)}, {_x(rt2, sf)}"
    if mode == 0b001:
        return f"{name} {regs}, [{_sp_or_x(rn)}], #{imm}"
    if mode == 0b011:
        return f"{name} {regs}, [{_sp_or_x(rn)}, #{imm}]!"
    off = f", #{imm}" if imm else ""
    return f"{name} {regs}, [{_sp_or_x(rn)}{off}]"


def _adr(op: int) -> str | None:
    if _f(op, 28, 24) != 0b10000:
        return None
    imm = _simm((_f(op, 23, 5) << 2) | _f(op, 30, 29), 21)
    rd = _f(op, 4, 0)
    if _f(op, 31, 31):
        return f"adrp {_x(rd)}, #{imm * 4096}"
    return f"adr {_x(rd)}, #{imm}"


def _madd(op: int) -> str | None:
    if _f(op, 30, 21) != 0b00_11011_000:
        return None
    sf = _f(op, 31, 31)
    rm, ra = _f(op, 20, 16), _f(op, 14, 10)
    rn, rd = _f(op, 9, 5), _f(op, 4, 0)
    name = "msub" if _f(op, 15, 15) else "madd"
    if ra == 31 and name == "madd":
        return f"mul {_x(rd, sf)}, {_x(rn, sf)}, {_x(rm, sf)}"
    return f"{name} {_x(rd, sf)}, {_x(rn, sf)}, {_x(rm, sf)}, {_x(ra, sf)}"


def _cbz(op: int) -> str | None:
    if _f(op, 30, 25) != 0b011010:
        return None
    sf, is_nz = _f(op, 31, 31), _f(op, 24, 24)
    offset = _simm(_f(op, 23, 5), 19) * 4
    name = "cbnz" if is_nz else "cbz"
    return f"{name} {_x(_f(op, 4, 0), sf)}, #{offset}"


def _tbz(op: int) -> str | None:
    if _f(op, 30, 25) != 0b011011:
        return None
    bit = (_f(op, 31, 31) << 5) | _f(op, 23, 19)
    offset = _simm(_f(op, 18, 5), 14) * 4
    name = "tbnz" if _f(op, 24, 24) else "tbz"
    sf = 1 if bit >= 32 else 0
    return f"{name} {_x(_f(op, 4, 0), sf)}, #{bit}, #{offset}"


def _bcond(op: int) -> str | None:
    if _f(op, 31, 24) != 0b01010100 or _f(op, 4, 4):
        return None
    offset = _simm(_f(op, 23, 5), 19) * 4
    return f"b.{COND_NAMES[_f(op, 3, 0)]} #{offset}"


def _b_bl(op: int) -> str | None:
    if _f(op, 30, 26) != 0b00101:
        return None
    offset = _simm(_f(op, 25, 0), 26) * 4
    return f"{'bl' if _f(op, 31, 31) else 'b'} #{offset}"


def _br_blr_ret(op: int) -> str | None:
    if _f(op, 31, 25) != 0b1101011 or _f(op, 20, 10) != 0b11111_000000 or _f(op, 4, 0):
        return None
    opc, rn = _f(op, 24, 21), _f(op, 9, 5)
    if opc == 0b0000:
        return f"br {_x(rn)}"
    if opc == 0b0001:
        return f"blr {_x(rn)}"
    if opc == 0b0010:
        return "ret" if rn == 30 else f"ret {_x(rn)}"
    if opc == 0b0100 and rn == 31:
        return "eret"
    return None


def _hint(op: int) -> str | None:
    if _f(op, 31, 12) != 0b11010101000000110010 or _f(op, 4, 0) != 0b11111:
        return None
    return "nop" if op == 0xD503201F else f"hint #{_f(op, 11, 5)}"


def _sysreg(op: int) -> str | None:
    if _f(op, 31, 22) != 0b1101010100 or _f(op, 20, 20) != 1:
        return None
    is_read = _f(op, 21, 21)
    enc = (2 + _f(op, 19, 19), _f(op, 18, 16), _f(op, 15, 12), _f(op, 11, 8), _f(op, 7, 5))
    rt = _f(op, 4, 0)
    name = ENCODING_TO_SYSREG.get(enc)
    if name is None:
        sysname = f"s{enc[0]}_{enc[1]}_c{enc[2]}_c{enc[3]}_{enc[4]}"
    else:
        sysname = name.lower()
    if is_read:
        return f"mrs {_x(rt)}, {sysname}"
    return f"msr {sysname}, {_x(rt)}"


def _hvc(op: int) -> str | None:
    if _f(op, 31, 21) != 0b11010100_000:
        return None
    low = _f(op, 4, 0)
    if low == 0b00010:
        return f"hvc #{_f(op, 20, 5):#x}"
    if low == 0b00001:
        return f"svc #{_f(op, 20, 5):#x}"
    return None


_DECODERS = [
    _addsub_imm, _addsub_reg, _logical_reg, _logical_imm, _movewide,
    _bitfield, _csel, _ccmp, _div, _rbit, _ldst_imm, _ldst_reg, _ldst_imm9, _ldst_pair,
    _adr, _madd, _cbz, _tbz, _bcond, _b_bl, _br_blr_ret, _hint, _sysreg, _hvc,
]

#: Every decode-arm name, in decoder priority order.  The architecture
#: registry exposes this as the authoritative arm list for coverage maps.
DECODE_ARMS = tuple(fn.__name__.lstrip("_") for fn in _DECODERS)
