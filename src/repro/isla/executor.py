"""Isla: SMT-guided symbolic execution of ISA models into ITL traces.

Given an opcode (possibly with symbolic bits) and a set of assumptions, the
executor runs the mini-Sail model symbolically:

- register/memory effects become ITL events over fresh SMT constants,
- model-level branches (``MachineInterface.branch``) are *pruned* with the
  SMT solver: a branch whose condition is decided by the assumptions and
  path condition produces no trace structure at all — this is exactly the
  mechanism that collapses the 146-line ``add sp, sp, 64`` semantics to the
  few events of Fig. 3;
- genuinely undecided branches fork the execution, yielding the ITL
  ``Cases`` construct with an ``Assert`` of the branch condition at the head
  of each subtrace (Fig. 6).

Path enumeration uses the standard concolic re-execution scheme: the model
function is deterministic given a sequence of fork decisions, so each run
replays a decision prefix and schedules the feasible siblings of every new
fork it encounters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..itl import events as E
from ..itl.events import Reg
from ..itl.trace import Trace
from ..resilience.budget import Budget, BudgetExhausted
from ..resilience.faults import TransientFault, fault_at
from ..sail.iface import MachineInterface, ModelError
from ..sail.model import IsaModel
from ..smt import builder as B
from ..smt.solver import SAT, UNKNOWN, UNSAT, Solver
from ..smt.sorts import Sort, bv_sort
from ..smt.terms import FALSE, TRUE, Term
from .assumptions import Assumptions


class IslaError(Exception):
    """Symbolic execution failed (model error on a feasible path, or path
    explosion beyond the configured limit)."""


class PathBudgetExceeded(IslaError):
    """Path enumeration ran out of its allowance.

    Carries the partial result built from the paths explored so far (or
    ``None`` when nothing completed), so callers can degrade — verify what
    was covered and report the rest as unexplored — instead of aborting.
    The partial trace is marked via :attr:`IslaResult.exhausted`; it must
    never be treated as a complete enumeration.
    """

    def __init__(self, message: str, partial: "IslaResult | None" = None) -> None:
        super().__init__(message)
        self.partial = partial


@dataclass
class _Run:
    """One completed symbolic path."""

    segments: list[list[E.Event]]
    decisions: list[bool]


class SymbolicMachine(MachineInterface):
    """The symbolic interpreter behind :func:`trace_for_opcode`."""

    def __init__(
        self,
        model: IsaModel,
        assumptions: Assumptions,
        forced: tuple[bool, ...],
        name_prefix: str = "v",
        budget: Budget | None = None,
        solver: Solver | None = None,
    ) -> None:
        self.model = model
        self.assumptions = assumptions
        self.forced = forced
        self.segments: list[list[E.Event]] = [[]]
        self.decisions: list[bool] = []
        self.reg_cache: dict[Reg, Term] = {}
        #: ``trace_for_opcode`` shares one solver across every path of an
        #: enumeration, scoped by push/pop; a standalone machine gets a
        #: private solver.
        self.solver = solver if solver is not None else Solver(budget=budget)
        self._counter = 0
        self._prefix = name_prefix
        self.calls = 0
        self.steps = 0
        self.checks_skipped = 0
        #: Is the current path condition known satisfiable?  Set by any SAT
        #: feasibility verdict, invalidated by unchecked ``solver.add``
        #: (read_reg assumption constraints).  Enables eliding the second
        #: branch-feasibility query: if path P is SAT and P ∧ cond is UNSAT,
        #: every model of P falsifies cond, so P ∧ ¬cond is SAT.
        self._path_known_feasible = False

    # -- events ------------------------------------------------------------

    def _emit(self, event: E.Event) -> None:
        self.segments[-1].append(event)

    def _fresh(self, sort: Sort) -> Term:
        name = f"{self._prefix}{self._counter}"
        self._counter += 1
        var = B.var(name, sort)
        self._emit(E.DeclareConst(var, sort))
        return var

    # -- registers -----------------------------------------------------------

    def read_reg(self, reg: Reg) -> Term:
        self.steps += 1
        cached = self.reg_cache.get(reg)
        if cached is not None:
            return cached
        width = self.model.regfile.width_of(reg)
        pinned = self.assumptions.pinned.get(reg)
        if pinned is not None:
            if pinned.width != width:
                raise IslaError(f"assumption width mismatch on {reg}")
            self._emit(E.AssumeReg(reg, pinned))
            self.reg_cache[reg] = pinned
            return pinned
        var = self._fresh(bv_sort(width))
        self._emit(E.ReadReg(reg, var))
        predicate = self.assumptions.constrained.get(reg)
        if predicate is not None:
            constraint = predicate(var)
            self._emit(E.Assume(constraint))
            self.solver.add(constraint)
            self._path_known_feasible = False
        self.reg_cache[reg] = var
        return var

    def write_reg(self, reg: Reg, value: Term) -> None:
        self.steps += 1
        width = self.model.regfile.width_of(reg)
        if value.width != width:
            raise ModelError(f"write to {reg}: width {value.width} != {width}")
        value = self.define(f"{reg.base.lower()}", value)
        self._emit(E.WriteReg(reg, value))
        self.reg_cache[reg] = value

    # -- memory ---------------------------------------------------------------

    def read_mem(self, addr: Term, nbytes: int) -> Term:
        self.steps += 1
        var = self._fresh(bv_sort(8 * nbytes))
        self._emit(E.ReadMem(var, addr, nbytes))
        return var

    def write_mem(self, addr: Term, data: Term, nbytes: int) -> None:
        self.steps += 1
        data = self.define("wdata", data)
        self._emit(E.WriteMem(addr, data, nbytes))

    # -- control ------------------------------------------------------------------

    def define(self, hint: str, value: Term) -> Term:
        if value.is_value() or value.is_var():
            return value
        var = B.var(f"{self._prefix}{self._counter}", value.sort)
        self._counter += 1
        self._emit(E.DefineConst(var, value))
        return var

    def branch(self, cond: Term, hint: str = "") -> bool:
        self.steps += 1
        if cond is TRUE:
            return True
        if cond is FALSE:
            return False
        fault = fault_at("executor.fork")
        if fault == "transient":
            raise TransientFault(f"injected transient fault at branch {hint!r}")
        if fault == "unknown":
            # An injected "unknown" skips pruning entirely: both directions
            # are treated as feasible, which is sound (the infeasible
            # subtrace starts with an Assert the logic refutes) but forks
            # more — exactly the degradation a flaky solver would cause.
            verdict = not_verdict = UNKNOWN
        else:
            # Only an UNSAT verdict drops a direction; an UNKNOWN one keeps
            # it, as the injected "unknown" keeps both.
            verdict = self.solver.check(cond)
            if verdict == UNSAT and self._path_known_feasible:
                # P is SAT and P ∧ cond is UNSAT, so the model of P
                # witnesses P ∧ ¬cond: the second query is a foregone
                # conclusion.
                self.checks_skipped += 1
                return False
            not_verdict = self.solver.check(B.not_(cond))
            if verdict == UNSAT and not_verdict == UNSAT:
                # Path condition itself unsatisfiable; should have been pruned.
                raise IslaError(f"dead path reached at branch {hint!r}")
            # A one-way branch leaves the path condition P as it was, and
            # a SAT verdict on the direction kept shows P satisfiable.
            if not_verdict == UNSAT:
                if verdict == SAT:
                    self._path_known_feasible = True
                return True
            if verdict == UNSAT:
                if not_verdict == SAT:
                    self._path_known_feasible = True
                return False
        # A genuine fork: the path goes on satisfiable only when the
        # direction taken was checked SAT.
        idx = len(self.decisions)
        taken = self.forced[idx] if idx < len(self.forced) else True
        self._path_known_feasible = (verdict if taken else not_verdict) == SAT
        self.decisions.append(taken)
        asserted = cond if taken else B.not_(cond)
        self.segments.append([E.Assert(asserted)])
        self.solver.add(asserted)
        return taken

    # -- instrumentation -----------------------------------------------------------

    def note_call(self, name: str) -> None:
        self.calls += 1

    def note_step(self, n: int = 1) -> None:
        self.steps += n


@dataclass
class IslaResult:
    """A generated trace plus execution metrics.

    ``exhausted`` is ``None`` for a complete enumeration; otherwise it names
    the budget that ran out (``"paths"``, ``"deadline"``, ``"conflicts"``)
    and the trace covers only the paths explored before exhaustion —
    callers must degrade, never report such a trace as fully verified.
    """

    trace: Trace
    paths: int
    model_calls: int
    model_steps: int
    solver_checks: int
    #: Branch-feasibility queries elided because the verdict was implied by
    #: an earlier one (see ``SymbolicMachine._path_known_feasible``).
    checks_skipped: int = 0
    exhausted: str | None = None
    #: True when the result was served from an on-disk cache (the metrics
    #: then describe the original, cached run).
    cached: bool = False
    #: Always ``False``: every trace is either executed directly or served
    #: from the cache.  Kept for readers that still classify results by it.
    parametric: bool = False


#: How many times one forced path prefix is re-executed after a transient
#: fault before the executor gives up on it.
_TRANSIENT_RETRIES = 3


def trace_for_opcode(
    model: IsaModel,
    opcode: int | Term,
    assumptions: Assumptions | None = None,
    max_paths: int = 64,
    name_prefix: str = "v",
    budget: Budget | None = None,
    partial_on_exhaustion: bool = False,
    cache=None,
    cache_key: str | None = None,
) -> IslaResult:
    """Run Isla on one opcode: returns the (pruned, simplified) ITL trace.

    ``opcode`` may be a concrete int or a term with symbolic bits (symbolic
    immediates).  ``assumptions`` are the constraints under which the model
    is specialised.

    Resource governance: ``budget`` bounds the wall clock, the SAT-conflict
    allowance of the pruning solver, and (via ``path_allowance``) the number
    of symbolic paths.  On exhaustion the default is to raise
    :class:`PathBudgetExceeded` carrying the partial result; with
    ``partial_on_exhaustion=True`` the partial result itself is returned,
    marked via :attr:`IslaResult.exhausted`.

    ``cache`` is an optional :class:`repro.cache.DiskCache`.  Only
    *complete* enumerations are ever stored or served (a partial trace is
    an artefact of one run's budget, not of the instruction), and the cache
    is bypassed entirely while a fault injector is active.  A caller that
    already holds :func:`~repro.cache.keys.trace_key` of these arguments
    passes it as ``cache_key`` so the key is not computed twice.
    """
    from ..resilience.faults import active_injector

    assumptions = assumptions or Assumptions()
    if isinstance(opcode, int):
        opcode = B.bv(opcode, model.instr_bytes * 8)

    key: str | None = None
    if cache is not None and active_injector() is None:
        from ..cache.keys import trace_key

        key = cache_key or trace_key(model, opcode, assumptions, name_prefix)
        hit = cache.load_trace(key)
        if hit is not None:
            trace, meta = hit
            return IslaResult(
                trace,
                paths=meta.get("paths", 0),
                model_calls=meta.get("model_calls", 0),
                model_steps=meta.get("model_steps", 0),
                solver_checks=meta.get("solver_checks", 0),
                checks_skipped=meta.get("checks_skipped", 0),
                exhausted=None,
                cached=True,
            )

    raw, metrics, exhausted = _enumerate_raw(
        model, opcode, assumptions, max_paths, name_prefix, budget
    )

    partial: IslaResult | None = None
    if raw is not None:
        trace = _finish_raw(raw, model, opcode)
        result = IslaResult(
            trace,
            metrics["paths"],
            metrics["model_calls"],
            metrics["model_steps"],
            metrics["solver_checks"],
            checks_skipped=metrics["checks_skipped"],
            exhausted=exhausted,
        )
        if exhausted is None:
            if key is not None:
                meta = {
                    "paths": result.paths,
                    "model_calls": result.model_calls,
                    "model_steps": result.model_steps,
                    "solver_checks": result.solver_checks,
                    "checks_skipped": result.checks_skipped,
                }
                cache.store_trace(key, trace, meta)
            return result
        partial = result
    if partial_on_exhaustion and partial is not None:
        return partial
    if exhausted == "paths":
        raise PathBudgetExceeded(
            f"more than {metrics['path_limit']} symbolic paths", partial
        )
    raise PathBudgetExceeded(f"budget exhausted: {exhausted}", partial)


def _finish_raw(raw: Trace, model: IsaModel, opcode: Term):
    """Simplify a raw trace and check its well-formedness at emission.

    A trace that passes is recorded as checked, so ITL replay does not
    check it again (see :func:`repro.itl.opsem.note_wellformed`).
    """
    from ..analysis.wellformed import maybe_assert_wellformed
    from ..itl.opsem import note_wellformed
    from .footprint import simplify_trace

    trace = simplify_trace(raw)
    if maybe_assert_wellformed(
        trace,
        model.regfile,
        where=lambda: f"trace_for_opcode({opcode!r})",
    ):
        note_wellformed(trace)
    return trace


def _enumerate_raw(
    model: IsaModel,
    opcode: Term,
    assumptions: Assumptions,
    max_paths: int = 64,
    name_prefix: str = "v",
    budget: Budget | None = None,
) -> tuple[Trace | None, dict, str | None]:
    """Enumerate every symbolic path and reassemble the raw Cases tree.

    Returns ``(raw, metrics, exhausted)``: the unsimplified trace tree (or
    ``None`` if no path completed), the execution counters, and the name of
    the budget resource that ran out (``None`` for a complete enumeration).
    This is the model-execution core of :func:`trace_for_opcode`.
    """
    path_limit = max_paths if budget is None else budget.path_limit(max_paths)
    runs: list[_Run] = []
    worklist: list[tuple[bool, ...]] = [()]
    explored: set[tuple[bool, ...]] = set()
    retries: dict[tuple[bool, ...], int] = {}
    total_calls = 0
    total_steps = 0
    total_checks = 0
    total_skipped = 0
    exhausted: str | None = None
    # One solver for the whole enumeration: every path runs in its own
    # push/pop scope.
    shared_solver = Solver(budget=budget)

    while worklist:
        forced = worklist.pop()
        if forced in explored:
            continue
        if len(runs) >= path_limit:
            if budget is not None and budget.exhausted is None:
                budget.exhausted = "paths"
            exhausted = "paths"
            break
        if budget is not None:
            try:
                budget.check_deadline()
            except BudgetExhausted as exc:
                exhausted = exc.resource
                break
        machine = SymbolicMachine(
            model, assumptions, forced, name_prefix, budget, solver=shared_solver
        )
        checks_before = shared_solver.stats["checks"]
        shared_solver.push()
        try:
            model.execute(machine, opcode)
        except ModelError as exc:
            raise IslaError(f"model error on feasible path: {exc}") from exc
        except TransientFault as exc:
            attempts = retries.get(forced, 0) + 1
            if attempts > _TRANSIENT_RETRIES:
                raise IslaError(
                    f"persistent transient fault on path {forced!r}: {exc}"
                ) from exc
            retries[forced] = attempts
            worklist.append(forced)  # replay the same prefix
            continue
        except BudgetExhausted as exc:
            exhausted = exc.resource
            break
        finally:
            # Retract this path's constraints in every exit (including the
            # transient-fault replay, which may have added a partial
            # prefix); the encodings stay cached in the solver's context.
            shared_solver.pop()
        explored.add(forced)
        if budget is not None:
            budget.charge_paths()
        runs.append(_Run(machine.segments, machine.decisions))
        total_calls += machine.calls
        total_steps += machine.steps
        total_checks += shared_solver.stats["checks"] - checks_before
        total_skipped += machine.checks_skipped
        # Schedule the sibling of every fork discovered beyond the prefix.
        for i in range(len(forced), len(machine.decisions)):
            sibling = tuple(machine.decisions[:i]) + (not machine.decisions[i],)
            if sibling not in explored:
                worklist.append(sibling)

    raw = _build_tree(runs, 0) if runs else None
    metrics = {
        "paths": len(runs),
        "model_calls": total_calls,
        "model_steps": total_steps,
        "solver_checks": total_checks,
        "checks_skipped": total_skipped,
        "path_limit": path_limit,
    }
    return raw, metrics, exhausted


def _build_tree(runs: list[_Run], depth: int) -> Trace:
    """Reassemble the Cases tree from the per-path decision records.

    All runs passed in share their first ``depth`` decisions, and therefore
    (by determinism of the model) their first ``depth + 1`` segments.
    """
    shared = tuple(runs[0].segments[depth])
    enders = [r for r in runs if len(r.decisions) == depth]
    if enders:
        if len(runs) != 1:
            raise IslaError("inconsistent fork structure")
        return Trace(shared)
    true_runs = [r for r in runs if r.decisions[depth]]
    false_runs = [r for r in runs if not r.decisions[depth]]
    subs = [_build_tree(group, depth + 1) for group in (true_runs, false_runs) if group]
    if len(subs) == 1:
        only = subs[0]
        return Trace(shared + only.events, only.cases)
    return Trace(shared, tuple(subs))
