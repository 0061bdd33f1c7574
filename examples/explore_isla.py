#!/usr/bin/env python3
"""Interactive-style Isla exploration (§2.8's first workflow step).

"These constraints are usually determined by knowledge of the architecture,
knowledge of the intended context of the code, and interactive exploration
using Isla."  This example shows that exploration: the same instructions
under progressively stronger constraints, watching the traces shrink, plus
the symbolic-immediate traces of the pKVM case study's relocated code.

Run with:  python examples/explore_isla.py
"""

from repro.arch.arm import ArmModel, encode as A
from repro.arch.riscv import RiscvModel, encode as RV
from repro.casestudies.pkvm import symbolic_movz
from repro.isla import Assumptions, IslaError, trace_for_opcode
from repro.itl import trace_to_sexpr
from repro.smt import builder as B


def show(model, title, opcode, assumptions, full=False):
    try:
        res = trace_for_opcode(model, opcode, assumptions)
    except IslaError as exc:
        print(f"  {title:<44} ERROR: {exc}")
        return
    print(
        f"  {title:<44} {res.paths} path(s), "
        f"{res.trace.num_events():>3} events"
    )
    if full:
        print(trace_to_sexpr(res.trace))


def main() -> None:
    arm = ArmModel()
    riscv = RiscvModel()
    el2 = Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)

    print("=== add sp, sp, #0x40 — the Fig. 2/3 example ===")
    show(arm, "no constraints (5-way banked SP)", 0x910103FF, Assumptions())
    show(arm, "EL = 2, SP = 1 (Fig. 3)", 0x910103FF, el2, full=True)

    print("\n=== conditional branch (Fig. 6) ===")
    show(arm, "beq -16, flags unknown", A.b_cond("eq", -16), Assumptions())
    show(arm, "beq -16, Z pinned to 0", A.b_cond("eq", -16),
         Assumptions().pin("PSTATE.Z", 0, 1))

    print("\n=== a 4-byte store: alignment checking ===")
    show(arm, "EL2 only (fault path remains)", A.str32_imm(0, 1), el2)
    show(arm, "EL2 + SCTLR_EL2 = 0 (no checking)", A.str32_imm(0, 1),
         el2.copy().pin("SCTLR_EL2", 0, 64))
    show(arm, "EL2 + SCTLR_EL2.A = 1 (check live)", A.str32_imm(0, 1),
         el2.copy().pin("SCTLR_EL2", 2, 64))

    print("\n=== eret: the §2.8 poster child for constraints ===")
    show(arm, "no SPSR constraint", A.eret(), el2)
    show(arm, "SPSR pinned to EL1t", A.eret(),
         el2.copy().pin("SPSR_EL2", 0x3C4, 64).pin("HCR_EL2", 0x8000_0000, 64))
    relaxed = el2.copy().pin("HCR_EL2", 0x8000_0000, 64).constrain(
        "SPSR_EL2",
        lambda v: B.or_(B.eq(v, B.bv(0x3C4, 64)), B.eq(v, B.bv(0x3C9, 64))),
    )
    show(arm, "SPSR in {0x3c4, 0x3c9} (pKVM's relaxed)", A.eret(), relaxed)

    print("\n=== symbolic immediates (pKVM relocation) ===")
    g = B.bv_var("g0", 16)
    show(arm, "movz x9, #<symbolic imm16>", symbolic_movz(9, g, 0), el2, full=True)

    print("\n=== the same machinery on RISC-V (§2.7) ===")
    show(riscv, "beqz a2, +28", RV.beqz("a2", 28), Assumptions())
    show(riscv, "lb a3, 0(a1)", RV.lb("a3", "a1"), Assumptions(), full=True)


if __name__ == "__main__":
    main()
