"""Directed instruction templates for Armv8-A test generation.

:data:`COSIM_FIELDS` gives the co-sim generator one field-domain entry per
decode arm (format: :class:`~repro.cosim.generate.WordSampler`), and
:data:`CONFORMANCE_TEMPLATES` directed single lines for the differential
conformance suite, covering encodings random word sampling is unlikely to
reach.
"""

from __future__ import annotations

from .regs import SYSREG_ENCODINGS

#: Condition codes eq..le (``al``/``nv`` excluded).
_CONDS = range(14)

#: Known-good system registers for mrs/msr (always encodable, never pinned
#: by the co-sim domain), as their ``(o0, op1, crn, crm, op2)`` fields.
_SYSREGS = tuple(
    (op0 - 2, *rest)
    for op0, *rest in (SYSREG_ENCODINGS[name] for name in (
        "ELR_EL2", "SPSR_EL2", "FAR_EL2", "ESR_EL2", "VBAR_EL2", "TPIDR_EL2"))
)

#: Branch displacements (bytes) into their word-offset fields.
_IMM14, _IMM19, _IMM26 = ((("imm14", 15, 2),), (("imm19", 20, 2),),
                          (("imm26", 27, 2),))

_RD_RN = {"sf": 1, "rn": "reg", "rd": "reg"}
_RD_RN_RM = {**_RD_RN, "rm": "reg"}
_X_LDST = {"size": 3, "rn": "base", "rt": "reg"}
_X_PAIR = {"opc": 0b10, "rt": "reg", "rt2": "reg", "rn": "base"}

#: 64-bit (``x``) register forms only, as the modelled case studies use;
#: memory offsets stay within a few doublewords of the base register.
COSIM_FIELDS = {
    "addsub_imm": {**_RD_RN, "op": (0, 1), "s": (0, 1), "sh": 0,
                   "imm12": range(1 << 12)},
    "addsub_reg": {**_RD_RN_RM, "op": (0, 1), "s": (0, 1),
                   "shift": (0, 1, 2), "imm6": range(64)},
    "logical_reg": {**_RD_RN_RM, "opc": range(4), "n": (0, 1),
                    "shift": range(4), "imm6": range(64)},
    # A rotated run of 1..63 ones in one 64-bit element.
    "logical_imm": {**_RD_RN, "opc": range(4), "n": 1, "immr": range(64),
                    "imms": range(63)},
    "movewide": {"sf": 1, "opc": (0b00, 0b10, 0b11), "hw": range(4),
                 "imm16": range(1 << 16), "rd": "reg"},
    "bitfield": {**_RD_RN, "opc": (0b00, 0b10), "n": 1, "immr": range(64),
                 "imms": range(64)},
    "csel": {**_RD_RN_RM, "neg": (0, 1), "o2": (0, 1), "cond": _CONDS},
    "ccmp": tuple(
        {"sf": 1, "op": (0, 1), "rn": "reg", "nzcv": range(16),
         "cond": _CONDS, "e": e, "rm_or_imm": operand}
        for e, operand in ((1, range(32)), (0, "reg"))
    ),
    "div": {**_RD_RN_RM, "o1": (0, 1)},
    "rbit": _RD_RN,
    "ldst_imm": (
        {**_X_LDST, "opc": 0b01, "imm12": range(8)},
        {**_X_LDST, "opc": 0b00, "imm12": range(8)},
        {**_X_LDST, "size": 0, "opc": 0b01, "imm12": range(16)},
        {**_X_LDST, "size": 0, "opc": 0b00, "imm12": range(16)},
        {**_X_LDST, "size": 1, "opc": 0b01, "imm12": range(8)},
        {**_X_LDST, "size": 2, "opc": 0b10, "imm12": range(8)},
    ),
    "ldst_reg": {**_X_LDST, "rm": "reg", ("size", "opc", "option", "s"): (
        (3, 0b01, 0b011, 0), (3, 0b00, 0b011, 1),
        (2, 0b01, 0b010, 1), (2, 0b00, 0b110, 0),
    )},
    "ldst_imm9": (
        {**_X_LDST, "opc": (0b00, 0b01), "mode": 0b00, "imm9": range(-16, 16)},
        ({**_X_LDST, "opc": 0b01, "mode": 0b01, "imm9": range(-16, 17, 8)},
         {**_X_LDST, "opc": 0b00, "mode": 0b11, "imm9": range(-16, 17, 8)}),
    ),
    "ldst_pair": (
        {**_X_PAIR, "mode": 0b010, "l": (0, 1), "imm7": range(8)},
        ({**_X_PAIR, "mode": 0b001, "l": 1, "imm7": range(-2, 3)},
         {**_X_PAIR, "mode": 0b011, "l": 0, "imm7": range(8)}),
    ),
    "adr": (
        {"page": 0, "immlo": 0, "immhi": range(-64, 64), "rd": "reg"},
        {"page": 1, "immlo": range(4), "immhi": range(-2, 2), "rd": "reg"},
    ),
    "madd": {**_RD_RN_RM, "o0": (0, 1), "ra": "reg"},
    "cbz": {"sf": 1, "op": (0, 1), _IMM19: "branch", "rt": "reg"},
    "tbz": {"b5": (0, 1), "op": (0, 1), "b40": range(32), _IMM14: "branch",
            "rt": "reg"},
    "bcond": {_IMM19: "branch", "cond": _CONDS},
    "b_bl": {"op": (0, 1), _IMM26: "branch"},
    "br_blr_ret": ({"opc": 0b0000, "rn": "reg"}, {"opc": 0b0001, "rn": "reg"},
                   {"opc": 0b0010, "rn": 30}),
    "hint": ({"crm_op2": 0}, {"crm_op2": range(32)}),
    "sysreg": {"l": (0, 1), ("o0", "op1", "crn", "crm", "op2"): _SYSREGS,
               "rt": "reg"},
    "hvc": {"imm16": range(1 << 16), "low": (0b00010, 0b00001)},
}

#: Words the decoder accepts but the model does not execute, per arm as
#: ``eq`` clauses of the spec's claim language; the cosim sampler emits
#: none.  ``opc = 0b10`` in the imm9 box is the sign-extending loads.
COSIM_UNMODELLED = {"ldst_imm9": (("eq", 23, 22, 0b10),)}


# Directed templates: assembly lines whose encodings random sampling is
# unlikely to reach (near-constant words), with {r}/{n} filled per draw.
CONFORMANCE_TEMPLATES = [
    "rbit x{r}, x{n}", "rbit w{r}, w{n}",
    "br x{r}", "blr x{r}", "ret", "ret x{r}", "eret",
    "nop", "hint #{h}",
    "mrs x{r}, esr_el2", "mrs x{r}, vbar_el2", "msr elr_el2, x{r}",
    "hvc #{h}", "svc #{h}",
    "ldp x{r}, x{n}, [x{m}]", "stp x{r}, x{n}, [x{m}, #16]",
    "stp x{r}, x{n}, [sp, #-16]!", "ldp x{r}, x{n}, [sp], #16",
    "tbz x{r}, #{h}, #8", "tbnz x{r}, #{h}, #-8",
    "sdiv x{r}, x{n}, x{m}", "udiv w{r}, w{n}, w{m}",
    "ldur x{r}, [x{n}, #-8]", "stur w{r}, [x{n}, #3]",
    "ldursw x{r}, [x{n}, #4]", "sturh w{r}, [x{n}, #-2]",
    "ccmp x{r}, #{h}, #5, ne", "ccmn w{r}, w{n}, #3, lt",
    "tst x{r}, #0xff0", "uxtb w{r}, w{n}",
]
