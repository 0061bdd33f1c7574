"""``repro.casestudies`` — one module per Fig. 12 row of the paper.

Each module exposes ``build()`` (assemble + run Isla + package specs) and
``verify(case)`` (run the Islaris proof automation).  The modules are the
ones :data:`repro.cases.CASE_STUDIES` names, all imported here.

:func:`verify_case` is the one verification driver: ``tools/verify`` and
the daemon's job runner both call it, so their certificates agree because
they run the same code.
"""

import importlib

from ..cases import CASE_STUDIES

__all__ = list(CASE_STUDIES)

for _name in __all__:
    globals()[_name] = importlib.import_module(f".{_name}", __name__)
del _name


def pc_for(module):
    """The architecture PC register of a case-study module."""
    pc = getattr(module, "PC", None)
    if pc is not None:
        return pc
    from ..arch.arm.regs import PC

    return PC


def verify_case(
    name: str,
    kwargs: dict | None = None,
    *,
    cache=None,
    kept_traces=None,
    budget_spec=None,
    fault_seed: int | None = None,
    fault_rate: float = 0.05,
    on_built=None,
    progress=None,
):
    """Build a case study and verify all its blocks in one governed run.

    Returns ``(case, report)``, ``report`` a
    :class:`~repro.resilience.outcome.RunReport`.  The build runs under
    :func:`~repro.frontend.program.configured` with ``cache`` and the
    daemon's ``kept_traces``; ``on_built(case)`` fires once it is done.
    The run gets one :class:`~repro.resilience.budget.Budget` from
    ``budget_spec``, shared by its blocks, and ``progress(addr, outcome)``
    fires after each block (:meth:`ProofEngine.verify_all_governed
    <repro.logic.automation.ProofEngine.verify_all_governed>`).

    With ``fault_seed``, one :class:`~repro.resilience.faults.FaultInjector`
    governs the verify step only, never the build.  How many decisions a
    fault site sees depends on which queries the in-memory check cache
    short-circuits, so an injected run starts with that cache empty: a
    seed gives the same schedule whatever earlier runs left in it.

    ``cache`` serves traces only; every solver verdict is computed in this
    process.  A model error while the case is built propagates as
    :class:`~repro.isla.IslaError` for the caller to report.
    """
    from contextlib import nullcontext

    from ..frontend.program import configured
    from ..logic.automation import verify_program
    from ..resilience import Budget, FaultInjector, inject
    from ..smt.solver import clear_check_cache

    module = globals()[name]
    with configured(cache=cache, kept_traces=kept_traces):
        case = module.build(**(kwargs or {}))
    if on_built is not None:
        on_built(case)
    injection = nullcontext()
    if fault_seed is not None:
        clear_check_cache()
        injection = inject(FaultInjector(fault_seed, rate=fault_rate))
    with injection:
        report = verify_program(
            case.frontend.traces, case.specs, pc_for(module),
            budget=Budget(budget_spec) if budget_spec is not None else None,
            progress=progress,
        )
    return case, report
