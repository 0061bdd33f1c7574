"""OpenPOWER register file for the modelled fixed-point subset.

Thirty-two 64-bit general-purpose registers (``r0``..``r31`` — unlike
RISC-V's ``x0``, ``r0`` is a real register; only *addressing* contexts
read it as zero), the program counter, the branch facility registers
``CTR`` and ``LR``, the fixed-point exception register ``XER``, and the
condition register as eight independent 4-bit fields ``CR0``..``CR7``.

Bit conventions: we use LSB-0 numbering throughout (the Power ISA manual
numbers bits MSB-0; our bit *i* is the manual's bit ``63 - i`` /
``31 - i``).  Within a 4-bit CR field the manual's order LT, GT, EQ, SO
maps to our bits 3, 2, 1, 0.  ``XER.SO`` (summary overflow) is our XER
bit 31.
"""

from __future__ import annotations

from ...itl.events import Reg
from ...sail.registers import RegisterFile

#: Bit positions inside a 4-bit CR field (LSB-0).
CR_LT = 3
CR_GT = 2
CR_EQ = 1
CR_SO = 0

#: XER summary-overflow bit position (LSB-0).
XER_SO_BIT = 31

#: SPR numbers of the modelled special-purpose registers (mtspr/mfspr).
SPR_XER = 1
SPR_LR = 8
SPR_CTR = 9

#: SPR number -> register name.  The instruction field swaps the two 5-bit
#: halves of the SPR number, so SPR n < 32 appears in bits [20:11] as n<<5.
SPR_REGISTERS = {SPR_XER: "XER", SPR_LR: "LR", SPR_CTR: "CTR"}

#: SPR instruction-field values (spr[4:0] || spr[9:5] swapped halves).
SPR_FIELD = {n: ((n & 0x1F) << 5) | (n >> 5) for n in SPR_REGISTERS}
FIELD_SPR = {field: n for n, field in SPR_FIELD.items()}

PC = Reg("PC")
CTR = Reg("CTR")
LR = Reg("LR")
XER = Reg("XER")


def declare_ppc_registers(regfile: RegisterFile) -> None:
    """Declare the full ppc64 register file we model."""
    for i in range(32):
        regfile.declare(f"r{i}", 64)
    regfile.declare("PC", 64)
    regfile.declare("CTR", 64)
    regfile.declare("LR", 64)
    regfile.declare("XER", 64)
    for i in range(8):
        regfile.declare(f"CR{i}", 4)


_GPRS = tuple(Reg(f"r{n}") for n in range(32))


def gpr(n: int) -> Reg:
    """The n-th general-purpose register (n in 0..31), one shared name."""
    if not 0 <= n <= 31:
        raise ValueError(f"r{n} is not a general-purpose register")
    return _GPRS[n]


_CR_FIELDS = tuple(Reg(f"CR{n}") for n in range(8))


def cr_field(n: int) -> Reg:
    """The n-th 4-bit condition-register field (n in 0..7), one shared name."""
    if not 0 <= n <= 7:
        raise ValueError(f"CR{n} is not a condition-register field")
    return _CR_FIELDS[n]
