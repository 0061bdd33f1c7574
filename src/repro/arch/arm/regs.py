"""AArch64 register file and system-register encodings.

Declares the general-purpose registers, the banked stack pointers
(``SP_EL0``..``SP_EL3`` — the source of the five-way case split the paper
discusses for ``add sp, sp, 64``), the PSTATE fields, and the ~50 system
registers the case studies interact with (the pKVM handler alone touches 49
different system registers, §6).

The MSR/MRS encoding table maps the (op0, op1, CRn, CRm, op2) tuples of the
real A64 system-register space to our register names.
"""

from __future__ import annotations

from ...itl.events import Reg
from ...sail.registers import RegisterFile

# PSTATE fields we model (name -> width).
PSTATE_FIELDS = {
    "N": 1, "Z": 1, "C": 1, "V": 1,  # condition flags
    "D": 1, "A": 1, "I": 1, "F": 1,  # interrupt masks (DAIF)
    "EL": 2,  # current exception level
    "SP": 1,  # stack-pointer select (0: shared SP_EL0, 1: banked)
    "nRW": 1,  # 0 = AArch64
}

#: system registers: name -> (op0, op1, CRn, CRm, op2)
SYSREG_ENCODINGS: dict[str, tuple[int, int, int, int, int]] = {
    # -- EL2 control state (the hvc / pKVM case studies) --
    "VBAR_EL2": (3, 4, 12, 0, 0),
    "HCR_EL2": (3, 4, 1, 1, 0),
    "SPSR_EL2": (3, 4, 4, 0, 0),
    "ELR_EL2": (3, 4, 4, 0, 1),
    "ESR_EL2": (3, 4, 5, 2, 0),
    "FAR_EL2": (3, 4, 6, 0, 0),
    "HPFAR_EL2": (3, 4, 6, 0, 4),
    "SCTLR_EL2": (3, 4, 1, 0, 0),
    "ACTLR_EL2": (3, 4, 1, 0, 1),
    "CPTR_EL2": (3, 4, 1, 1, 2),
    "HSTR_EL2": (3, 4, 1, 1, 3),
    "MDCR_EL2": (3, 4, 1, 1, 1),
    "TTBR0_EL2": (3, 4, 2, 0, 0),
    "TCR_EL2": (3, 4, 2, 0, 2),
    "VTTBR_EL2": (3, 4, 2, 1, 0),
    "VTCR_EL2": (3, 4, 2, 1, 2),
    "MAIR_EL2": (3, 4, 10, 2, 0),
    "AMAIR_EL2": (3, 4, 10, 3, 0),
    "TPIDR_EL2": (3, 4, 13, 0, 2),
    "CNTHCTL_EL2": (3, 4, 14, 1, 0),
    "CNTVOFF_EL2": (3, 4, 14, 0, 3),
    "VMPIDR_EL2": (3, 4, 0, 0, 5),
    "VPIDR_EL2": (3, 4, 0, 0, 0),
    "AFSR0_EL2": (3, 4, 5, 1, 0),
    "AFSR1_EL2": (3, 4, 5, 1, 1),
    # -- EL1 state saved/restored by hypervisors --
    "SCTLR_EL1": (3, 0, 1, 0, 0),
    "ACTLR_EL1": (3, 0, 1, 0, 1),
    "CPACR_EL1": (3, 0, 1, 0, 2),
    "TTBR0_EL1": (3, 0, 2, 0, 0),
    "TTBR1_EL1": (3, 0, 2, 0, 1),
    "TCR_EL1": (3, 0, 2, 0, 2),
    "SPSR_EL1": (3, 0, 4, 0, 0),
    "ELR_EL1": (3, 0, 4, 0, 1),
    "ESR_EL1": (3, 0, 5, 2, 0),
    "AFSR0_EL1": (3, 0, 5, 1, 0),
    "AFSR1_EL1": (3, 0, 5, 1, 1),
    "FAR_EL1": (3, 0, 6, 0, 0),
    "PAR_EL1": (3, 0, 7, 4, 0),
    "MAIR_EL1": (3, 0, 10, 2, 0),
    "AMAIR_EL1": (3, 0, 10, 3, 0),
    "VBAR_EL1": (3, 0, 12, 0, 0),
    "CONTEXTIDR_EL1": (3, 0, 13, 0, 1),
    "TPIDR_EL1": (3, 0, 13, 0, 4),
    "CNTKCTL_EL1": (3, 0, 14, 1, 0),
    "CSSELR_EL1": (3, 2, 0, 0, 0),
    "MPIDR_EL1": (3, 0, 0, 0, 5),
    "MIDR_EL1": (3, 0, 0, 0, 0),
    # -- EL0 thread registers --
    "TPIDR_EL0": (3, 3, 13, 0, 2),
    "TPIDRRO_EL0": (3, 3, 13, 0, 3),
    # -- stack pointers as system registers (MSR/MRS access) --
    "SP_EL0": (3, 0, 4, 1, 0),
    "SP_EL1": (3, 4, 4, 1, 0),
    "SP_EL2": (3, 6, 4, 1, 0),
}

ENCODING_TO_SYSREG = {enc: name for name, enc in SYSREG_ENCODINGS.items()}

#: Exception-class codes (ESR_ELx.EC) used by the model.
EC_UNKNOWN = 0x00
EC_HVC64 = 0x16
EC_SVC64 = 0x15
EC_DATA_ABORT_LOWER = 0x24
EC_DATA_ABORT_SAME = 0x25
EC_PC_ALIGNMENT = 0x22
EC_SP_ALIGNMENT = 0x26

#: Data Fault Status Code for alignment faults (ISS.DFSC).
DFSC_ALIGNMENT = 0b100001

#: Vector-table offsets (VBAR_ELx + offset), AArch64.
VECTOR_CURRENT_SP0_SYNC = 0x000
VECTOR_CURRENT_SPX_SYNC = 0x200
VECTOR_LOWER_A64_SYNC = 0x400
VECTOR_LOWER_A32_SYNC = 0x600


def declare_arm_registers(regfile: RegisterFile) -> None:
    """Declare the full AArch64 register file we model."""
    for i in range(31):
        regfile.declare(f"R{i}", 64)
    regfile.declare("_PC", 64)
    for el in range(4):
        regfile.declare(f"SP_EL{el}", 64)
    regfile.declare_struct("PSTATE", PSTATE_FIELDS)
    for name in SYSREG_ENCODINGS:
        if not name.startswith("SP_EL"):
            regfile.declare(name, 64)


_GPRS = tuple(Reg(f"R{n}") for n in range(31))
_PSTATE = {field: Reg("PSTATE", field) for field in PSTATE_FIELDS}


def gpr(n: int) -> Reg:
    """The n-th general-purpose register (n in 0..30), one shared name."""
    if not 0 <= n <= 30:
        raise ValueError(f"X{n} is not a general-purpose register")
    return _GPRS[n]


def sp_for_el(el: int) -> Reg:
    return Reg(f"SP_EL{el}")


def pstate(field: str) -> Reg:
    try:
        return _PSTATE[field]
    except KeyError:
        raise ValueError(f"unknown PSTATE field {field}") from None


PC = Reg("_PC")
