"""OpenPOWER single-line assembler: the inverse of :mod:`repro.arch.ppc.decode`.

``assemble_line`` parses exactly the grammar the disassembler emits (plus
its extended-mnemonic aliases) and hands the operands to
:mod:`repro.arch.ppc.encode`, which packs the word through the spec's
field tables.  The disassembler stays independent of those tables, so
``assemble_line(disassemble(op)) == op`` for every word the decoder
accepts grounds them (``lint --isa`` checks it on solver witnesses, the
conformance suite on random words).
"""

from __future__ import annotations

from functools import partial

from . import encode


class AsmError(Exception):
    """The line is not in the disassembler's output grammar."""


def _forms() -> dict:
    """Mnemonic -> (operand shape, encoder taking the operands in order).

    Shapes: ``r`` a GPR, ``c`` a CR field, ``i`` an integer, ``m`` a
    ``disp(reg)`` memory operand (passed as register, then displacement).
    """
    shapes = {
        "": ("nop", "blr", "blrl", "bctr", "bctrl"),
        "ri": ("li", "lis"),
        "rri": ("addi", "addis", "ori", "oris", "xori", "xoris", "andi.",
                "andis."),
        "rr": ("mr",),
        "rrr": ("add", "subf", "and", "or", "xor"),
        "cri": ("cmpdi", "cmpwi", "cmpldi", "cmplwi"),
        "crr": ("cmpd", "cmpw", "cmpld", "cmplw"),
        "rm": ("lwz", "lbz", "stw", "stb", "ld", "std"),
        "i": ("b", "bl", "bdnz"),
        "iii": ("bc", "bcl"),
        "ii": ("bclr", "bcctr"),
        "r": ("mtctr", "mtlr", "mtxer", "mfctr", "mflr", "mfxer"),
    }
    forms = {}
    for shape, names in shapes.items():
        for name in names:
            attr = name.replace(".", "_")
            forms[name] = (shape, getattr(encode, attr + "_" if attr in ("and", "or") else attr))
    # The ``l`` (link) forms set LK and take the same operands.
    for name in ("bdnz", "bclr", "bcctr"):
        shape, builder = forms[name]
        forms[name + "l"] = (shape, partial(builder, lk=1))
    for cond in encode.BRANCH_CONDS:
        forms[f"b{cond}"] = ("ci", partial(encode.bcond, cond))
        forms[f"b{cond}l"] = ("ci", partial(encode.bcond, cond, lk=1))
    return forms


_FORMS = _forms()


def _int(tok: str) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"bad integer {tok!r}") from None


def _operand(kind: str, tok: str) -> list:
    if kind in "rc":
        return [tok]  # the encoder parses register and CR-field names
    if kind == "i":
        return [_int(tok)]
    if not tok.endswith(")") or "(" not in tok:
        raise AsmError(f"bad memory operand {tok!r}")
    disp, _, base = tok[:-1].partition("(")
    return [base, _int(disp)]


def assemble_line(text: str) -> int:
    text = text.strip()
    mnemonic, _, rest = text.partition(" ")
    ops = [o.strip() for o in rest.split(",")] if rest.strip() else []
    if mnemonic not in _FORMS:
        raise AsmError(f"unknown mnemonic {mnemonic!r}")
    shape, builder = _FORMS[mnemonic]
    if len(ops) != len(shape):
        raise AsmError(f"{mnemonic} expects {len(shape)} operand(s): {text!r}")
    args = [arg for kind, tok in zip(shape, ops) for arg in _operand(kind, tok)]
    try:
        return builder(*args)
    except ValueError as exc:
        raise AsmError(f"cannot assemble {text!r}: {exc}") from None
