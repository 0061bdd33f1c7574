"""CLI: print the Fig. 12 reproduction table.

Usage::

    python -m repro.tools.fig12 [case ...]

With no arguments, runs every case study.  ``benchmarks/test_fig12_table.py``
prints the same table and asserts the paper's orderings on it.

The paper's Fig. 12 reports, per case study: assembly size, ITL trace size,
specification size, manual proof size, Isla time, and Coq (verification)
time.  Our analogue of each column:

====================  =======================================================
paper column          this reproduction
====================  =======================================================
``asm``  (lines)      instructions in the program image
``ITL``  (events)     total events in the generated instruction map
``Spec`` (lines)      assertions + pure facts across all specifications
``Proof`` (lines)     block specifications supplied by the user (the manual
                      input: entry specs, loop invariants, continuation
                      specs) — the automation does the rest
``Isla`` (s)          trace-generation time (symbolic execution + solver)
``Coq``  (s)          proof-automation time / checker (Qed) time
(not in the paper)    ``steps``: rule applications; ``sc``: side conditions
                      recorded; ``smt``: those whose goal is not ``true``, so
                      they reach a solver (the builder folds the rest to
                      ``true`` while the automation builds them)
====================  =======================================================

Absolute times are not comparable to the paper's Coq pipeline; the *shape*
(relative ordering across case studies, where time is spent) is what
EXPERIMENTS.md compares.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from ..casestudies import (
    binsearch_arm,
    binsearch_riscv,
    hvc,
    memcpy_arm,
    memcpy_riscv,
    pkvm,
    rbit,
    uart,
    unaligned,
)
from ..logic.checker import check_proof
from ..smt.terms import TRUE


@dataclass
class Fig12Row:
    name: str
    isa: str
    asm_lines: int
    itl_events: int
    spec_size: int
    manual_inputs: int
    isla_time: float
    verify_time: float
    check_time: float
    proof_steps: int
    side_conditions: int
    solver_conditions: int

    def format(self) -> str:
        return (
            f"{self.name:<16} {self.isa:<5} {self.asm_lines:>4} "
            f"{self.itl_events:>5} {self.spec_size:>5} {self.manual_inputs:>5}  "
            f"{self.isla_time:>7.3f} {self.verify_time:>7.3f} {self.check_time:>7.3f}  "
            f"{self.proof_steps:>6} {self.side_conditions:>4} "
            f"{self.solver_conditions:>4}"
        )


HEADER = (
    f"{'Test':<16} {'ISA':<5} {'asm':>4} {'ITL':>5} {'Spec':>5} {'Blks':>5}  "
    f"{'Isla(s)':>7} {'Ver(s)':>7} {'Qed(s)':>7}  {'steps':>6} {'sc':>4} "
    f"{'smt':>4}"
)

#: Paper's Fig. 12 values for shape comparison (asm lines, ITL events).
PAPER_FIG12 = {
    "memcpy/arm": (8, 169),
    "memcpy/rv": (8, 134),
    "hvc": (13, 436),
    "pkvm": (47, 1070),
    "unaligned": (1, 104),
    "uart": (14, 207),
    "rbit": (2, 26),
    "binsearch/arm": (32, 741),
    "binsearch/rv": (48, 801),
}

CASE_BUILDERS = {
    "memcpy/arm": ("arm", memcpy_arm, {"n": 4}),
    "memcpy/rv": ("rv", memcpy_riscv, {"n": 4}),
    "hvc": ("arm", hvc, {}),
    "pkvm": ("arm", pkvm, {}),
    "unaligned": ("arm", unaligned, {}),
    "uart": ("arm", uart, {}),
    "rbit": ("arm", rbit, {}),
    "binsearch/arm": ("arm", binsearch_arm, {"n": 4}),
    "binsearch/rv": ("rv", binsearch_riscv, {"n": 4}),
}


def spec_size(specs) -> int:
    """Assertions + pure facts, counting nested code-pointer predicates."""
    total = 0
    seen = set()

    def count(pred):
        nonlocal total
        if id(pred) in seen:
            return
        seen.add(id(pred))
        total += len(pred.assertions) + len(pred.pure)
        from ..logic import InstrPre

        for a in pred.assertions:
            if isinstance(a, InstrPre):
                count(a.pred)

    for pred in specs.values():
        count(pred)
    return total


def run_case(name: str) -> Fig12Row:
    """Build, verify, and re-check one case study, timing each stage."""
    isa, module, kwargs = CASE_BUILDERS[name]
    t0 = time.perf_counter()
    case = module.build(**kwargs)
    t1 = time.perf_counter()
    proof = module.verify(case)
    t2 = time.perf_counter()
    check_proof(proof, expected_blocks=set(case.specs))
    t3 = time.perf_counter()
    return Fig12Row(
        name=name,
        isa=isa,
        asm_lines=case.asm_line_count,
        itl_events=case.frontend.total_events,
        spec_size=spec_size(case.specs),
        manual_inputs=len(case.specs),
        isla_time=t1 - t0,
        verify_time=t2 - t1,
        check_time=t3 - t2,
        proof_steps=len(proof.steps),
        side_conditions=proof.num_side_conditions,
        solver_conditions=sum(
            sc.goal is not TRUE
            for step in proof.steps
            for sc in step.side_conditions
        ),
    )


def format_table(rows: list[Fig12Row]) -> str:
    lines = [HEADER, "-" * len(HEADER)]
    lines += [row.format() for row in rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.fig12", description="Print the Fig. 12 reproduction table."
    )
    parser.add_argument("cases", nargs="*", choices=[[], *CASE_BUILDERS])
    args = parser.parse_args(argv)
    names = args.cases or list(CASE_BUILDERS)
    rows = []
    for name in names:
        print(f"running {name} ...", file=sys.stderr)
        rows.append(run_case(name))
    print(format_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
