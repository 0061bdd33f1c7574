"""Case study: C inline assembly — bit reversal via ``rbit`` (§6).

The compiled C function::

    rev:  rbit x0, x0
          ret

C verification tools choke on inline assembly; Islaris verifies the machine
code, where the inline ``rbit`` is just another instruction.  The
"intuitive specification" the paper relates the Isla-produced bitvector term
to is expressed here as 64 per-bit pure facts, not as a syntactic match
on the model's term:

    ∀ i.  result[i] = x[63 - i]

The per-bit facts never reach the bitvector solver: the simplifying
constructors of :mod:`repro.smt.builder` fold each of them to ``true``
while the automation builds it, and all 67 side conditions in rbit's
certificate carry the goal ``true``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.arm import ArmModel, encode as A
from ..arch.arm.abi import cnvz_regs, sys_regs
from ..frontend import FrontendResult, ProgramImage, generate_instruction_map
from ..isla import Assumptions
from ..logic import Pred, PredBuilder, Proof, ProofEngine
from ..smt import builder as B

BASE = 0x40_0000


@dataclass
class RbitCase:
    image: ProgramImage
    frontend: FrontendResult
    specs: dict[int, Pred]

    @property
    def asm_line_count(self) -> int:
        return len(self.image.opcodes)


def build_image(base: int = BASE) -> ProgramImage:
    image = ProgramImage()
    image.place(base, [A.rbit(0, 0), A.ret()], label="rev")
    return image


def build_specs(base: int = BASE) -> dict[int, Pred]:
    x = B.bv_var("x", 64)
    r = B.bv_var("r", 64)
    y = B.bv_var("y", 64)
    bit_facts = [
        B.eq(B.extract(i, i, y), B.extract(63 - i, 63 - i, x)) for i in range(64)
    ]
    post = (
        PredBuilder()
        .exists(y)
        .reg("R0", y)
        .reg_any("R30")
        .reg_col("sys_regs", sys_regs(2, 1))
        .reg_col("CNVZ_regs", cnvz_regs())
        .pure(*bit_facts)
        .build()
    )
    entry = (
        PredBuilder()
        .exists(x, r)
        .reg("R0", x)
        .reg("R30", r)
        .reg_col("sys_regs", sys_regs(2, 1))
        .reg_col("CNVZ_regs", cnvz_regs())
        .instr_pre(r, post)
        .build()
    )
    return {base: entry}


def build(base: int = BASE) -> RbitCase:
    image = build_image(base)
    frontend = generate_instruction_map(
        ArmModel(), image, Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)
    )
    return RbitCase(image, frontend, build_specs(base))


def verify(case: RbitCase) -> Proof:
    from ..arch.arm.regs import PC

    return ProofEngine(case.frontend.traces, case.specs, PC).verify_all()
