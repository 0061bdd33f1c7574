"""Directed instruction templates for RISC-V test generation.

:data:`COSIM_FIELDS` gives the co-sim generator one field-domain entry per
decode arm (format: :class:`~repro.cosim.generate.WordSampler`), and
:data:`CONFORMANCE_TEMPLATES` directed lines for the conformance suite.
"""

from __future__ import annotations

from .encode import CSR_NAMES

#: Scrambled immediates: a byte offset into its ISA-manual slices.
_J_OFF = (("imm20", 20, 20), ("imm10_1", 10, 1), ("imm11", 11, 11),
          ("imm19_12", 19, 12))
_B_OFF = (("imm12", 12, 12), ("imm10_5", 10, 5), ("imm4_1", 4, 1),
          ("imm11", 11, 11))
_S_OFF = (("imm11_5", 11, 5), ("imm4_0", 4, 0))

#: Doubleword offsets from a base register.
_MEM = range(-32, 32, 8)
_RD_RS1 = {"rd": "reg", "rs1": "reg"}
_RD_RS1_RS2 = {**_RD_RS1, "rs2": "reg"}


def _shifts(width: int) -> tuple:
    """slli / srli / srai with a shift amount below ``width``."""
    return tuple(
        {**_RD_RS1, "funct3": funct3, "imm12": range(top, top + width)}
        for funct3, top in ((1, 0), (5, 0), (5, 0x400))
    )


COSIM_FIELDS = {
    "lui": {"imm20": range(1 << 20), "rd": "reg"},
    "auipc": {"imm20": range(1 << 20), "rd": "reg"},
    "jal": {_J_OFF: "branch", "rd": "reg"},
    "jalr": {**_RD_RS1, "imm12": _MEM},
    "branch": {_B_OFF: "branch", "rs1": "reg", "rs2": "reg",
               "funct3": (0, 1, 4, 5, 6, 7)},
    "load": {"rd": "reg", "rs1": "base", "funct3": range(7), "imm12": _MEM},
    "store": {_S_OFF: _MEM, "rs1": "base", "rs2": "reg", "funct3": range(4)},
    "op_imm": (
        {**_RD_RS1, "funct3": (0, 2, 3, 4, 6, 7), "imm12": range(-2048, 2048)},
        _shifts(64),
    ),
    "op_imm32": (
        {**_RD_RS1, "funct3": 0, "imm12": range(-2048, 2048)},
        _shifts(32),
    ),
    "op": {**_RD_RS1_RS2, ("funct7", "funct3"): (
        *((0, funct3) for funct3 in range(8)), (0x20, 0), (0x20, 5),
    )},
    "op32": {**_RD_RS1_RS2, ("funct7", "funct3"): (
        (0, 0), (0x20, 0), (0, 1), (0, 5), (0x20, 5),
    )},
    "fence": {},
    "system": (
        # ecall, ebreak, wfi, mret
        *({"funct12": funct12, "rs1": 0, "funct3": 0, "rd": 0}
          for funct12 in (0x000, 0x001, 0x105, 0x302)),
        {**_RD_RS1, "funct12": CSR_NAMES["mscratch"], "funct3": 0b001},
        {**_RD_RS1, "funct12": CSR_NAMES["mepc"], "funct3": 0b010},
        {"rd": "reg", "rs1": range(32), "funct12": CSR_NAMES["mcause"],
         "funct3": 0b111},
    ),
}

#: Words the decoder accepts but the model does not execute: none.
COSIM_UNMODELLED: dict = {}


# Directed templates: assembly lines whose encodings random sampling is
# unlikely to reach (near-constant words), with {t}/{u}/{h} filled per draw.
CONFORMANCE_TEMPLATES = [
    "fence", "ecall", "ebreak", "mret", "wfi",
    "csrr t{t}, mstatus", "csrw mtvec, t{t}",
    "csrrw t{t}, mscratch, t{u}", "csrrci t{t}, mstatus, {h}",
    "lwu t{t}, 4(t{u})", "sraiw t{t}, t{u}, {h}",
    "add t{t}, t{u}, t{t}", "sub t{t}, t{u}, t{t}",
    "sltu t{t}, t{u}, t{t}", "and t{t}, t{u}, t{t}",
    "sra t{t}, t{u}, t{t}", "addw t{t}, t{u}, t{t}",
    "sraw t{t}, t{u}, t{t}",
]
