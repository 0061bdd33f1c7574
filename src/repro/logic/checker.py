"""Independent re-checking of proof objects.

The paper's verification results are foundational because Coq's kernel
re-checks the proof term produced by the automation (the "Qed" column of
Fig. 12).  This module plays that role for our proof objects: given a
:class:`~repro.logic.proof.Proof`, it independently re-validates every
recorded side condition — each a ``assumptions ⊨ goal`` judgment — and
audits the structural well-formedness of the rule sequence (every rule tag
is known, every block in the program was verified from its specification,
branch paths form a prefix-closed tree).

Each judgment is decided by exactly one refutation query on a fresh solver
with the result cache disabled: ``assumptions ∧ ¬goal`` must be UNSAT.  A
separate consistency query on the assumptions is subsumed — inconsistent
assumptions make the refutation query UNSAT too, so a vacuous judgment is
still accepted.  A certificate is untrusted input, so each query is
bounded by :data:`MAX_CONFLICTS`; an UNKNOWN answer (the conflict limit)
fails closed: the side condition is rejected.  Queries below that bound
are accepted whatever they cost, so all side-condition refutations of a
certificate also share one conflict allowance,
:data:`SIDE_CONDITION_CONFLICTS`; a certificate that spends it is
rejected.

Governed (degraded) proofs carry *residual obligations* — side conditions
the automation could not decide.  The checker re-attempts each residual
with the same query: UNSAT counts it as discharged; SAT *refutes* it, a
hard failure (the automation mislabelled a ``failed`` block as
``degraded``); UNKNOWN leaves it residual.  A block with residual
obligations must never be claimed ``verified``, and that consistency is
audited here too.  Residuals that stay undecided cost their full bound
without failing, so all residual re-checks of a certificate share one
conflict allowance, :data:`RESIDUAL_CONFLICTS`; a certificate that spends
it is rejected.  A judgment repeated in one certificate is decided once.

The checker is deliberately small and independent of the automation: it
imports only the proof data structures and the solver.  (Like the paper,
the SMT solver itself remains in the TCB; §5-style translation validation
addresses the rest of the pipeline.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.budget import Budget, BudgetExhausted, BudgetSpec
from ..resilience.outcome import VERIFIED
from ..smt import builder as B
from ..smt.solver import SAT, UNSAT, Solver
from .proof import Proof, ProofStep

#: The SAT conflict bound of one checker query.  Every side condition of
#: the 51 benchmark certificates is decided with no conflict at all, while
#: a hostile goal such as 64-bit ``bvmul`` commutativity needs far more
#: than this and is rejected in seconds instead of holding the checker.
MAX_CONFLICTS = 1_000

#: The SAT conflicts that all side-condition refutations of one
#: certificate may spend together.  Over ``verify --all`` and every
#: parametrised case at n = 2..16 the largest total is 0 conflicts (every
#: side condition folds or is decided without one), so this is headroom
#: for legitimate proofs many times over, while a certificate stacking
#: hostile goals just under :data:`MAX_CONFLICTS` each is rejected after
#: two query bounds' worth of work.
SIDE_CONDITION_CONFLICTS = 2 * MAX_CONFLICTS

#: The SAT conflicts that all residual re-checks of one certificate may
#: spend together.  The degraded certificates of the fault-storm runs
#: re-check their residuals with no conflict at all; a certificate with
#: many hostile residuals is rejected after two query bounds' worth of
#: work instead of costing one bound per residual.
RESIDUAL_CONFLICTS = 2 * MAX_CONFLICTS

#: Every rule the automation may emit.  An unknown tag is a checker failure.
KNOWN_RULES = frozenset(
    {
        "block-start",
        "hoare-declare-const",
        "hoare-define-const",
        "hoare-read-reg",
        "hoare-read-reg-col",
        "hoare-write-reg",
        "hoare-assume-reg",
        "hoare-assert",
        "hoare-assume",
        "hoare-read-mem",
        "hoare-read-mem-array",
        "hoare-read-mem-mmio",
        "hoare-write-mem",
        "hoare-write-mem-array",
        "hoare-write-mem-mmio",
        "hoare-cases",
        "hoare-instr",
        "hoare-instr-pre",
        "entail",
        "entail-eq",
        "entail-pure",
        "residual",
    }
)


class CheckFailure(Exception):
    """The proof object did not re-validate."""


@dataclass
class CheckReport:
    """Outcome of re-checking a proof."""

    steps_checked: int = 0
    side_conditions_checked: int = 0
    residuals_remaining: int = 0
    residuals_discharged: int = 0
    blocks: list[int] = field(default_factory=list)

    def __str__(self) -> str:
        text = (
            f"checked {self.steps_checked} steps, "
            f"{self.side_conditions_checked} side conditions, "
            f"{len(self.blocks)} blocks"
        )
        if self.residuals_remaining or self.residuals_discharged:
            text += (
                f"; residuals: {self.residuals_remaining} remaining, "
                f"{self.residuals_discharged} discharged on re-check"
            )
        return text


def check_certificate(text: str | bytes) -> CheckReport:
    """Load and re-validate a serialised certificate.  A certificate is
    untrusted input: a malformed one is a :class:`CheckFailure` like any
    other rejection."""
    try:
        proof = Proof.from_json(text)
    except ValueError as exc:
        raise CheckFailure(f"malformed certificate: {exc}") from None
    return check_proof(proof)


def check_proof(proof: Proof, expected_blocks: set[int] | None = None) -> CheckReport:
    """Re-validate a proof object; raises :class:`CheckFailure` on any
    discrepancy."""
    report = CheckReport()
    verdicts: dict = {}
    allowance = _allowance(SIDE_CONDITION_CONFLICTS)
    for step in proof.steps:
        _check_step(step, report, verdicts, allowance)
    allowance = _allowance(RESIDUAL_CONFLICTS)
    for residual in proof.residual_obligations:
        _check_residual(residual, report, verdicts, allowance)
    report.blocks = sorted(proof.blocks_verified)
    # Blocks that completed with a recorded non-verified outcome (degraded /
    # unknown / failed under governance) are accounted for — they are not
    # *missing*, they are *not fully verified*, and the outcome map says so.
    excused = {
        addr for addr, outcome in proof.outcomes.items() if outcome != VERIFIED
    }
    degraded_blocks = {r.block for r in proof.residual_obligations}
    if expected_blocks is not None:
        missing = expected_blocks - set(proof.blocks_verified) - excused
        if missing:
            raise CheckFailure(
                f"blocks with specifications never verified: "
                f"{[hex(a) for a in sorted(missing)]}"
            )
    claimed = set(proof.blocks_verified)
    overclaimed = claimed & degraded_blocks
    if overclaimed:
        raise CheckFailure(
            f"blocks claimed verified despite residual obligations: "
            f"{[hex(a) for a in sorted(overclaimed)]}"
        )
    for addr, outcome in proof.outcomes.items():
        if outcome == VERIFIED and addr not in claimed:
            raise CheckFailure(
                f"outcome map claims 0x{addr:x} verified but the proof does not"
            )
    started = {s.block for s in proof.steps if s.rule == "block-start"}
    unverified = started - claimed - excused
    if unverified:
        raise CheckFailure(
            f"blocks started but not completed: {[hex(a) for a in sorted(unverified)]}"
        )
    return report


def _allowance(conflicts: int) -> Budget:
    """A conflict allowance shared by one certificate's queries, each
    still bounded by :data:`MAX_CONFLICTS`."""
    return Budget(
        BudgetSpec(
            conflict_allowance=conflicts,
            query_conflicts=MAX_CONFLICTS,
            base_conflicts=MAX_CONFLICTS,
        )
    )


def _check_step(
    step: ProofStep, report: CheckReport, verdicts: dict, allowance: Budget
) -> None:
    if step.rule not in KNOWN_RULES:
        raise CheckFailure(f"unknown rule {step.rule!r} in proof")
    report.steps_checked += 1
    for condition in step.side_conditions:
        try:
            status = _refute(condition, verdicts, allowance)
        except BudgetExhausted:
            raise CheckFailure(
                f"side conditions exceed the certificate's allowance of "
                f"{SIDE_CONDITION_CONFLICTS} conflicts (rule {step.rule}, "
                f"{condition.description})"
            ) from None
        if status != UNSAT:
            raise CheckFailure(
                f"side condition failed re-checking in rule {step.rule} "
                f"({condition.description}): {condition.goal!r}"
            )
        report.side_conditions_checked += 1


def _check_residual(
    residual, report: CheckReport, verdicts: dict, allowance: Budget
) -> None:
    try:
        status = _refute(residual, verdicts, allowance)
    except BudgetExhausted:
        raise CheckFailure(
            f"residual re-checks exceed the certificate's allowance of "
            f"{RESIDUAL_CONFLICTS} conflicts (block 0x{residual.block:x}, "
            f"{residual.description})"
        ) from None
    if status == UNSAT:
        report.residuals_discharged += 1
    elif status == SAT:
        raise CheckFailure(
            f"residual obligation is refutable (block 0x{residual.block:x}, "
            f"{residual.description}): the run should have failed, not degraded"
        )
    else:
        report.residuals_remaining += 1


def _refute(judgment, verdicts: dict, allowance: Budget | None = None) -> str:
    """Decide ``assumptions ⊨ goal`` with one query on a fresh, uncached
    solver: UNSAT of ``assumptions ∧ ¬goal`` means the judgment holds —
    including vacuously, when the assumptions alone are inconsistent.

    ``verdicts`` memoises the answers of one certificate's queries; with an
    ``allowance`` the query's conflicts are charged to it."""
    key = (tuple(judgment.assumptions), judgment.goal)
    verdict = verdicts.get(key)
    if verdict is None:
        solver = Solver(
            use_global_cache=False, max_conflicts=MAX_CONFLICTS, budget=allowance
        )
        solver.add(*judgment.assumptions)
        verdict = verdicts[key] = solver.check(B.not_(judgment.goal))
    return verdict
