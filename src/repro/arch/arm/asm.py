"""A64 single-line assembler: the inverse of :mod:`repro.arch.arm.decode`.

``assemble_line`` parses exactly the grammar the disassembler emits and
hands the operands to :mod:`repro.arch.arm.encode`, which packs the word
through the spec's field tables.  The round-trip property
``assemble_line(disassemble(op)) == op`` holds for every word the decoder
accepts.  The disassembler stays independent of the field tables, so the
property grounds them: ``lint --isa`` checks it on solver witnesses, and
the conformance tests fuzz it over random words and assert that every
decoder arm is reached.
"""

from __future__ import annotations

from . import encode


class AsmError(Exception):
    """The line is not in the disassembler's output grammar."""


def _split_ops(text: str) -> list[str]:
    out: list[str] = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        out.append(cur.strip())
    return out


def _reg(tok: str) -> tuple[int, int]:
    """Parse an x/w register (or sp/wsp/xzr/wzr) to ``(num, sf)``."""
    if tok in ("sp", "xzr"):
        return 31, 1
    if tok in ("wsp", "wzr"):
        return 31, 0
    if tok and tok[0] in "xw" and tok[1:].isdigit():
        n = int(tok[1:])
        if 0 <= n <= 30:
            return n, 1 if tok[0] == "x" else 0
    raise AsmError(f"bad register {tok!r}")


def _imm(tok: str) -> int:
    if not tok.startswith("#"):
        raise AsmError(f"expected immediate, got {tok!r}")
    return int(tok[1:], 0)


def _cond(tok: str) -> str:
    """A condition name, aliases (``hs``, ``lo``) included."""
    if tok not in encode.COND:
        raise AsmError(f"bad condition {tok!r}")
    return tok


_SHIFTS = {"lsl": 0, "lsr": 1, "asr": 2, "ror": 3}


def _shift_suffix(ops: list[str]) -> tuple[int, int]:
    """Pop a trailing ``lsl #n`` operand; returns ``(shift_type, amount)``."""
    if ops and ops[-1].split()[0] in _SHIFTS:
        kind, amount = ops.pop().split()
        return _SHIFTS[kind], _imm(amount)
    return 0, 0


# -- instruction families ----------------------------------------------------


def _addsub(mnemonic: str, ops: list[str]) -> int:
    sub = int(mnemonic in ("sub", "subs", "cmp"))
    s = int(mnemonic in ("adds", "subs", "cmp", "cmn"))
    if mnemonic in ("cmp", "cmn"):
        rd = 31
        rn, sf = _reg(ops[0])
        rest = ops[1:]
    else:
        rd, sf = _reg(ops[0])
        rn, _ = _reg(ops[1])
        rest = ops[2:]
    shift, amount = _shift_suffix(rest)
    if not rest[0].startswith("#"):
        rm, _ = _reg(rest[0])
        return encode.addsub_reg(
            rd, rn, rm, sub=sub, s=s, sf=sf, shift=shift, amount=amount
        )
    value = _imm(rest[0])
    if shift or amount not in (0, 12):
        raise AsmError(f"bad immediate shift in {ops!r}")
    if amount == 12:
        sh, imm12 = 1, value
    elif value > 0xFFF:
        sh, imm12 = 1, value >> 12
        if value & 0xFFF:
            raise AsmError(f"immediate {value:#x} not encodable")
    else:
        sh, imm12 = 0, value
    return encode.addsub_imm(rd, rn, imm12, sub=sub, s=s, sf=sf, shift12=sh)


_UNSCALED_TO_SCALED = {
    "ldur": "ldr", "stur": "str", "ldurb": "ldrb", "sturb": "strb",
    "ldurh": "ldrh", "sturh": "strh", "ldursb": "ldrsb",
    "ldursh": "ldrsh", "ldursw": "ldrsw",
}


def _parse_address(tok: str) -> tuple[str, list[str]]:
    """Split ``[...]``/``[...]!`` into (mode, inner operands)."""
    writeback = tok.endswith("!")
    if writeback:
        tok = tok[:-1]
    if not (tok.startswith("[") and tok.endswith("]")):
        raise AsmError(f"bad address {tok!r}")
    return ("pre" if writeback else "offset"), _split_ops(tok[1:-1])


def _post_index(ops: list[str], at: int) -> tuple[str, list[str], int | None]:
    """The address at ``ops[at]``, plus a trailing post-index immediate."""
    mode, inner = _parse_address(ops[at])
    if len(ops) == at + 2:
        if mode != "offset" or len(inner) != 1:
            raise AsmError(f"bad post-index form {ops!r}")
        return "post", inner, _imm(ops[at + 1])
    return mode, inner, None


def _ldst(name: str, ops: list[str]) -> int:
    rt, sf = _reg(ops[0])
    mode, inner, post = _post_index(ops, 1)
    rn, _ = _reg(inner[0])
    if mode == "post":
        return encode.ldst_imm9(name, rt, rn, post, "post", sf)
    if mode == "pre":
        return encode.ldst_imm9(name, rt, rn, _imm(inner[1]), "pre", sf)
    if name in _UNSCALED_TO_SCALED:
        return encode.ldst_imm9(_UNSCALED_TO_SCALED[name], rt, rn, _imm(inner[1]), sf=sf)
    if len(inner) == 1 or inner[1].startswith("#"):  # scaled unsigned offset
        offset = _imm(inner[1]) if len(inner) > 1 else 0
        return encode.ldst_imm(name, rt, rn, offset, sf)
    rm, _ = _reg(inner[1])  # register offset
    extend, amount = "lsl", None
    if len(inner) > 2:
        parts = inner[2].split()
        extend = parts[0]
        if len(parts) > 1:
            amount = _imm(parts[1])
    return encode.ldst_reg(name, rt, rn, rm, extend, amount, sf)


def _ldst_pair(name: str, ops: list[str]) -> int:
    rt, sf = _reg(ops[0])
    rt2, _ = _reg(ops[1])
    mode, inner, post = _post_index(ops, 2)
    rn, _ = _reg(inner[0])
    if post is not None:
        imm = post
    else:
        imm = _imm(inner[1]) if len(inner) > 1 else 0
    return encode.ldst_pair(int(name == "ldp"), rt, rt2, rn, imm, mode, sf)


def _sysreg(tok: str):
    """A system register name, or the ``s<op0>_<op1>_c<n>_c<m>_<op2>``
    encoding tuple the disassembler prints for unnamed ones."""
    parts = tok.split("_")
    if tok.upper() in encode.SYSREG_ENCODINGS or len(parts) != 5 or tok[:1] != "s":
        return tok
    return (
        int(parts[0][1:]), int(parts[1]), int(parts[2][1:]),
        int(parts[3][1:]), int(parts[4]),
    )


# -- the entry point ---------------------------------------------------------

#: Mnemonics whose operands are all registers -> how many.
_REG_ONLY = {"sdiv": 3, "udiv": 3, "mul": 3, "madd": 4, "msub": 4, "rbit": 2}


def assemble_line(text: str) -> int:
    """Assemble one line of disassembler output back to its 32-bit word."""
    text = text.strip()
    mnemonic, _, rest = text.partition(" ")
    try:
        return _assemble(mnemonic, _split_ops(rest))
    # A missing operand, or one the encoder rejects (out of range,
    # misaligned, unknown name).
    except (IndexError, ValueError) as exc:
        raise AsmError(f"cannot assemble {text!r}: {exc}") from None


def _assemble(mnemonic: str, ops: list[str]) -> int:
    if mnemonic in ("nop", "eret"):
        return getattr(encode, mnemonic)()
    if mnemonic == "hint":
        return encode.hint(_imm(ops[0]))
    if mnemonic == "ret":
        return encode.ret(_reg(ops[0])[0] if ops else encode.LR)
    if mnemonic in ("br", "blr"):
        return getattr(encode, mnemonic)(_reg(ops[0])[0])
    if mnemonic in ("b", "bl"):
        return getattr(encode, mnemonic)(_imm(ops[0]))
    if mnemonic.startswith("b."):
        return encode.b_cond(_cond(mnemonic[2:]), _imm(ops[0]))
    if mnemonic in ("cbz", "cbnz"):
        rt, sf = _reg(ops[0])
        return getattr(encode, mnemonic)(rt, _imm(ops[1]), sf)
    if mnemonic in ("tbz", "tbnz"):
        rt, _ = _reg(ops[0])
        return getattr(encode, mnemonic)(rt, _imm(ops[1]), _imm(ops[2]))
    if mnemonic in ("hvc", "svc"):
        return getattr(encode, mnemonic)(_imm(ops[0]))
    if mnemonic == "mrs":
        return encode.mrs(_reg(ops[0])[0], _sysreg(ops[1]))
    if mnemonic == "msr":
        return encode.msr(_sysreg(ops[0]), _reg(ops[1])[0])

    if mnemonic == "adr":
        return encode.adr(_reg(ops[0])[0], _imm(ops[1]))
    if mnemonic == "adrp":
        pages, rem = divmod(_imm(ops[1]), 4096)
        if rem:
            raise AsmError(f"adrp offset {ops[1]} is not page-aligned")
        return encode.adrp(_reg(ops[0])[0], pages)

    if mnemonic in ("add", "adds", "sub", "subs", "cmp", "cmn"):
        return _addsub(mnemonic, ops)

    if mnemonic == "mov":
        rd, sf = _reg(ops[0])
        if ops[1].startswith("#"):  # movz hw=0 alias
            return encode.movz(rd, _imm(ops[1]), 0, sf)
        return encode.mov_reg(rd, _reg(ops[1])[0], sf)
    if mnemonic in ("movn", "movz", "movk"):
        rd, sf = _reg(ops[0])
        shift, amount = _shift_suffix(ops)
        if shift or amount % 16:
            raise AsmError(f"bad movewide shift in {ops!r}")
        return getattr(encode, mnemonic)(rd, _imm(ops[1]), amount // 16, sf)

    if mnemonic == "tst":
        rn, sf = _reg(ops[0])
        if ops[1].startswith("#"):
            return encode.tst_imm(rn, _imm(ops[1]), sf)
        shift, amount = _shift_suffix(ops)
        return encode.logical_reg("ands", 31, rn, _reg(ops[1])[0], sf, shift, amount)
    if mnemonic in encode.LOGICAL:
        rd, sf = _reg(ops[0])
        rn, _ = _reg(ops[1])
        if ops[2].startswith("#"):
            return encode.logical_imm(mnemonic, rd, rn, _imm(ops[2]), sf)
        shift, amount = _shift_suffix(ops)
        return encode.logical_reg(mnemonic, rd, rn, _reg(ops[2])[0], sf, shift, amount)

    if mnemonic in ("lsr", "asr", "lsl", "ubfm", "sbfm", "uxtb"):
        rd, sf = _reg(ops[0])
        rn, _ = _reg(ops[1])
        if mnemonic == "uxtb":
            return encode.uxtb(rd, rn)
        if mnemonic in ("ubfm", "sbfm"):
            return getattr(encode, mnemonic)(rd, rn, _imm(ops[2]), _imm(ops[3]), sf)
        return getattr(encode, mnemonic + "_imm")(rd, rn, _imm(ops[2]), sf)

    if mnemonic == "cset":
        rd, sf = _reg(ops[0])
        return encode.cset(rd, _cond(ops[1]), sf)
    if mnemonic in encode.CONDSEL:
        rd, sf = _reg(ops[0])
        rn, _ = _reg(ops[1])
        rm, _ = _reg(ops[2])
        return encode.condsel(mnemonic, rd, rn, rm, _cond(ops[3]), sf)
    if mnemonic in ("ccmp", "ccmn"):
        rn, sf = _reg(ops[0])
        imm = ops[1].startswith("#")
        op2 = _imm(ops[1]) if imm else _reg(ops[1])[0]
        return encode.condcmp(mnemonic, rn, op2, _imm(ops[2]), _cond(ops[3]), sf, imm)

    if mnemonic in _REG_ONLY:
        if len(ops) != _REG_ONLY[mnemonic]:
            raise AsmError(f"{mnemonic} takes {_REG_ONLY[mnemonic]} registers")
        regs = [_reg(op) for op in ops]
        return getattr(encode, mnemonic)(*(n for n, _ in regs), sf=regs[0][1])

    if mnemonic in ("ldp", "stp"):
        return _ldst_pair(mnemonic, ops)
    if mnemonic.startswith(("ld", "st")):
        return _ldst(mnemonic, ops)

    raise AsmError(f"cannot assemble {mnemonic!r}")
