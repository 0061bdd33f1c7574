"""Spec-frame lint: diff case-study specs against inferred footprints.

The separation-logic specs own registers explicitly (``r ↦ᵣ v``, possibly
wildcarded).  The proof engine enforces one direction dynamically — a
``WriteReg`` to an unowned register fails the proof.  This pass checks
both directions *statically*, before any SMT work:

- ``FL001`` (error): some instruction of the program writes a register
  that no spec of the case mentions (neither a value nor a wildcard
  frame).  The proof cannot succeed; the spec is missing a frame.
- ``FL002`` (warning): a spec constrains a register (non-wildcard value)
  that lies outside the union footprint — the program neither reads nor
  writes it, so the clause is dead weight (a wildcard would do).
- ``FP001`` (info): an instruction performed a memory access whose address
  has no ``base ± offset`` shape, so its memory footprint is unknown.

The PC is excluded from ``FL001``: control flow is owned by the
``instr_pre`` code-pointer assertions, not by register points-tos.
"""

from __future__ import annotations

from ..itl.events import Reg
from ..itl.trace import Trace
from ..logic.assertions import InstrPre, Pred, RegCol, RegPointsTo
from .findings import ERROR, INFO, WARNING, Finding
from .footprint import Footprint, block_footprints

__all__ = ["lint_case", "lint_specs", "spec_mentioned_regs"]


def spec_mentioned_regs(pred: Pred) -> dict[Reg, bool]:
    """Registers a predicate mentions, mapped to whether any mention
    constrains the value (``True``) or all are wildcard frames (``False``).
    Nested ``instr_pre`` predicates count: a register framed only in the
    continuation's precondition is still owned by the spec."""
    out: dict[Reg, bool] = {}

    def note(reg: Reg, constrained: bool) -> None:
        out[reg] = out.get(reg, False) or constrained

    def walk(p: Pred) -> None:
        for a in p.assertions:
            if isinstance(a, RegPointsTo):
                note(a.reg, a.value is not None)
            elif isinstance(a, RegCol):
                for reg, value in a.entries:
                    note(reg, value is not None)
            elif isinstance(a, InstrPre):
                walk(a.pred)

    walk(pred)
    return out


def lint_specs(
    traces: dict[int, Trace],
    specs: dict[int, Pred],
    pc: Reg,
    case: str | None = None,
) -> list[Finding]:
    """Lint one program's specs against its inferred footprints."""
    findings: list[Finding] = []
    footprints = block_footprints(traces)
    union = Footprint()
    for fp in footprints.values():
        union = union.union(fp)

    mentioned: dict[Reg, bool] = {}
    for pred in specs.values():
        for reg, constrained in spec_mentioned_regs(pred).items():
            mentioned[reg] = mentioned.get(reg, False) or constrained

    for reg in sorted(union.reg_writes, key=str):
        if reg == pc or reg in mentioned:
            continue
        writers = sorted(
            addr for addr, fp in footprints.items() if reg in fp.reg_writes
        )
        findings.append(
            Finding(
                "FL001",
                ERROR,
                f"instruction writes register {reg} but no spec mentions it "
                "(missing frame)",
                where=str(reg),
                case=case,
                addr=writers[0] if writers else None,
                detail={"writers": [hex(a) for a in writers]},
            )
        )

    for reg in sorted(mentioned, key=str):
        if mentioned[reg] and reg != pc and reg not in union.regs:
            findings.append(
                Finding(
                    "FL002",
                    WARNING,
                    f"spec constrains register {reg} outside the program's "
                    "footprint (dead clause; a wildcard frame would do)",
                    where=str(reg),
                    case=case,
                )
            )

    for addr, fp in sorted(footprints.items()):
        unknown = fp.unknown_reads + fp.unknown_writes
        if unknown:
            findings.append(
                Finding(
                    "FP001",
                    INFO,
                    f"{unknown} memory access(es) with no base ± offset "
                    "shape; memory footprint is unknown",
                    case=case,
                    addr=addr,
                )
            )
    return findings


def _model_for(module):
    """The ISA model a case-study module verifies against (each module
    imports exactly one model class by convention)."""
    for attr in ("RiscvModel", "ArmModel"):
        cls = getattr(module, attr, None)
        if cls is not None:
            return cls()
    return None


def lint_case(name: str, case=None) -> list[Finding]:
    """Build (unless given) and lint one registered case study.

    Runs the well-formedness checker over every trace (with the module's
    register file, so widths are checked against declarations) and then
    the spec-frame lint.  Findings carry ``case``/``addr`` context.
    """
    from .. import casestudies
    from ..casestudies import pc_for
    from .wellformed import check_trace

    module = getattr(casestudies, name)
    if case is None:
        case = module.build()
    model = _model_for(module)
    regfile = model.regfile if model is not None else None

    findings: list[Finding] = []
    for addr, trace in sorted(case.frontend.traces.items()):
        for f in check_trace(trace, regfile):
            findings.append(
                Finding(f.code, f.severity, f.message, f.where, name, addr, f.detail)
            )
    findings.extend(
        lint_specs(case.frontend.traces, case.specs, pc_for(module), case=name)
    )
    return findings
