"""Per-block proofs on a built case, run in the calling process.

:func:`verify_case_parallel` builds a case study once and proves each of
its blocks as its own task on that case: each block gets its own share of
the run's budget, its own fault seed and its own fail-soft boundary, and
the results merge in block-address order, so the merged report and
certificate are a deterministic function of the inputs.

Fault injection composes deterministically: each block derives its
injector seed by hashing ``(run seed, block address)``, so the schedule a
block sees depends only on the run seed and the block — not on which
blocks ran before it.  (The *schedule* differs from a serial governed run,
which shares one per-site counter stream across blocks; determinism here
means run-to-run reproducibility of this driver.)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .. import obs
from ..itl.events import Reg
from ..obs import Counters
from ..resilience.shutdown import SHUTDOWN_REASON, shutdown_requested


def pc_for(module) -> Reg:
    """The architecture PC register of a case-study module."""
    pc = getattr(module, "PC", None)
    if pc is not None:
        return pc
    from ..arch.arm.regs import PC

    return PC


@dataclass(frozen=True)
class TaskFailure:
    """Why a block produced no result: it raised, or a graceful drain
    (:mod:`repro.resilience.shutdown`) stopped it before it ran.

    Carries only a reason string: by construction nothing result-shaped
    exists for the block.  Callers map these onto the ``unknown`` rung of
    the outcome lattice — fail-soft, never fail-silent.
    """

    reason: str


def _block_fault_seed(seed: int, addr: int) -> int:
    """A per-block injector seed: a pure function of (run seed, block)."""
    digest = hashlib.sha256(f"{seed}:{addr:#x}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _verify_block(case, pc: Reg, addr: int, budget, fault):
    """Verify one block of a built case under its budget share and fault
    seed; the block's :class:`~repro.resilience.outcome.RunReport`."""
    from contextlib import nullcontext

    from ..logic.automation import verify_program
    from ..resilience import FaultInjector, inject

    injection = nullcontext()
    if fault is not None:
        # Fault schedules are pure functions of (seed, site, per-site
        # counter) — but how many *decisions* a site sees depends on which
        # queries short-circuit in the in-memory check cache, and that
        # cache holds whatever earlier blocks and jobs left behind.  Start
        # the injected block cache-cold so the decision stream (and hence
        # the certificate) is a function of the block alone.
        from ..smt.solver import clear_check_cache

        clear_check_cache()
        seed, rate = fault
        injection = inject(FaultInjector(_block_fault_seed(seed, addr), rate=rate))
    with injection:
        return verify_program(
            case.frontend.traces, case.specs, pc, budget=budget, blocks=[addr]
        )


def verify_case_parallel(
    name: str,
    build_kwargs: dict | None = None,
    cache=None,
    budget_spec=None,
    fault_seed: int | None = None,
    fault_rate: float = 0.05,
    kept_traces=None,
    progress=None,
    on_built=None,
):
    """Build a case study and verify each block as its own task.

    Returns ``(case, report)`` where ``report`` is a merged
    :class:`~repro.resilience.outcome.RunReport`.  The merge is performed
    in block-address order throughout — outcomes, certificate steps,
    budget absorption — so the result is a deterministic function of the
    inputs.

    The run-wide ``budget_spec`` is partitioned across blocks with
    :meth:`~repro.resilience.budget.BudgetSpec.partition` (conflicts
    divided, deadline and per-query knobs replicated) and block
    consumption is folded back into one run-wide budget via
    :meth:`~repro.resilience.budget.Budget.absorb`.

    Fail-soft: a raising block or a graceful drain (SIGINT/SIGTERM) turns
    the affected blocks into ``unknown`` outcomes — never a traceback,
    never a silent ``verified`` — and their partitioned budget shares are
    *not* absorbed (the run budget only ever records resources a block
    actually reported consuming).

    ``kept_traces`` optionally serves the build's trace generation from a
    shared :class:`repro.service.batcher.KeptTraces` (the daemon's
    cross-job trace map); ``on_built(case)`` fires once the build is
    done, before any block starts; ``progress(addr, outcome)`` fires as
    each block's verdict arrives.
    """
    from .. import casestudies
    from ..logic.proof import Proof
    from ..resilience import Budget
    from ..resilience.outcome import UNKNOWN, BlockOutcome, RunReport
    from ..smt.solver import LRU_COUNTERS
    from .config import configured

    module = getattr(casestudies, name)
    # The job's run scope; the blocks' counts join it below.
    with configured(cache=cache, kept_traces=kept_traces), obs.scope() as run:
        case = module.build(**(build_kwargs or {}))
    if cache is not None:
        cache.flush()
    if on_built is not None:
        on_built(case)
    addrs = sorted(case.specs)
    shares = (
        budget_spec.partition(len(addrs))
        if budget_spec is not None and addrs
        else [None] * len(addrs)
    )
    fault = (fault_seed, fault_rate) if fault_seed is not None else None
    pc = pc_for(module)

    merged_proof = Proof()
    run_budget = Budget(budget_spec) if budget_spec is not None else None
    report = RunReport(proof=merged_proof, budget=run_budget)
    solver_totals = Counters()
    cache_totals = Counters()
    faults: list = []
    for addr, share in zip(addrs, shares):
        budget = Budget(share) if share is not None else None
        failure = None
        if shutdown_requested():
            failure = TaskFailure(SHUTDOWN_REASON)
        else:
            try:
                with obs.scope() as block_run:
                    sub = _verify_block(case, pc, addr, budget, fault)
            except Exception as exc:  # noqa: BLE001 — fail-soft by contract
                failure = TaskFailure(f"{type(exc).__name__}: {exc}")
        if failure is not None:
            report.blocks[addr] = BlockOutcome(addr, UNKNOWN, reason=failure.reason)
            merged_proof.outcomes[addr] = UNKNOWN
            # The failed block reported no consumption: its partitioned
            # budget share stays unspent in the run budget.
            continue
        merged_proof.steps.extend(sub.proof.steps)
        merged_proof.blocks_verified.extend(sub.proof.blocks_verified)
        merged_proof.residual_obligations.extend(sub.proof.residual_obligations)
        merged_proof.outcomes.update(sub.proof.outcomes)
        report.blocks[addr] = sub.blocks[addr]
        solver_totals.add(sub.solver_stats)
        cache_totals.add(sub.cache_stats)
        run.add(block_run.snapshot())
        if run_budget is not None and budget is not None:
            run_budget.absorb(budget.snapshot())
        faults.extend(sub.faults)
        if progress is not None:
            progress(addr, sub.blocks[addr].outcome)
    report.solver_stats = solver_totals.snapshot()
    # Summed gauges mean nothing: the check-cache counters only.
    report.cache_stats = {name: cache_totals[name] for name in LRU_COUNTERS}
    report.faults = tuple(faults)
    obs.add(run.snapshot())
    return case, report
