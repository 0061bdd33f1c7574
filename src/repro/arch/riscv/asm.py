"""RV64I single-line assembler: the inverse of :mod:`repro.arch.riscv.decode`.

``assemble_line`` parses exactly the grammar the disassembler emits and
hands the operands to :mod:`repro.arch.riscv.encode`, which packs the word
through the spec's field tables.  The disassembler stays independent of
those tables, so ``assemble_line(disassemble(op)) == op`` for every word
the decoder accepts grounds them (``lint --isa`` checks it on solver
witnesses, the conformance suite on random words).
"""

from __future__ import annotations

from . import encode
from .decode import ABI


class AsmError(Exception):
    """The line is not in the disassembler's output grammar."""


def _forms() -> dict:
    """Mnemonic -> (operand shape, encoder taking the operands in order).

    Shapes: ``r`` a register, ``i`` an integer, ``c`` a CSR name or
    address, ``m`` an ``imm(reg)`` memory operand (passed as register,
    then immediate).
    """
    shapes = {
        "": ("nop", "ret", "fence", "ecall", "ebreak", "mret", "wfi"),
        "ri": ("lui", "auipc", "li", "jal", "beqz", "bnez"),
        "i": ("j",),
        "rr": ("mv",),
        "rm": ("jalr", "lb", "lh", "lw", "ld", "lbu", "lhu", "lwu", "sb", "sh",
               "sw", "sd"),
        "rri": ("beq", "bne", "blt", "bge", "bltu", "bgeu", "addi", "slti",
                "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
                "addiw", "slliw", "srliw", "sraiw"),
        "rrr": ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or",
                "and", "addw", "subw", "sllw", "srlw", "sraw"),
        "rc": ("csrr",),
        "cr": ("csrw",),
        "rcr": ("csrrw", "csrrs", "csrrc"),
        "rci": ("csrrwi", "csrrsi", "csrrci"),
    }
    return {
        name: (shape, getattr(encode, name + "_" if name in ("or", "and") else name))
        for shape, names in shapes.items() for name in names
    }


_FORMS = _forms()


_REGS = {name: n for n, name in enumerate(ABI)}


def _reg(tok: str) -> int:
    if tok not in _REGS:
        raise AsmError(f"bad register {tok!r}")
    return _REGS[tok]


def _int(tok: str) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"bad integer {tok!r}") from None


def _operand(kind: str, tok: str) -> list:
    if kind == "r":
        return [_reg(tok)]
    if kind == "i":
        return [_int(tok)]
    if kind == "c":
        return [tok if tok in encode.CSR_NAMES else _int(tok)]
    if not tok.endswith(")") or "(" not in tok:
        raise AsmError(f"bad memory operand {tok!r}")
    imm, _, base = tok[:-1].partition("(")
    return [_reg(base), _int(imm)]


def assemble_line(text: str) -> int:
    text = text.strip()
    mnemonic, _, rest = text.partition(" ")
    ops = [o.strip() for o in rest.split(",")] if rest.strip() else []
    if mnemonic not in _FORMS:
        raise AsmError(f"cannot assemble {text!r}")
    shape, builder = _FORMS[mnemonic]
    if len(ops) != len(shape):
        raise AsmError(f"{mnemonic} takes {len(shape)} operand(s): {text!r}")
    args = [arg for kind, tok in zip(shape, ops) for arg in _operand(kind, tok)]
    try:
        return builder(*args)
    except ValueError as exc:
        raise AsmError(f"cannot assemble {text!r}: {exc}") from None
