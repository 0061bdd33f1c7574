"""The Islaris proof automation (§4.3).

:class:`ProofEngine` verifies a machine-code program, given

- the *instruction map*: address → ITL trace (produced by the Isla
  frontend),
- *block specifications*: address → :class:`Pred`, covering at least the
  entry point; loop heads need a spec (their invariant), everything else is
  verified by inlining (hoare-instr).

The engine is a deterministic, backtracking-free interpreter of the rules of
Figs. 5 and 11: each ITL event dispatches on its constructor, uses
``find_reg``/``find_mem`` to locate the unique matching resource in the
context (the Lithium ``findᵣ``/``findₘ`` instructions), and discharges side
conditions with the bitvector solver.  ``Cases`` verifies every subtrace
under the full context (hoare-cases), with infeasible branches dismissed by
their leading ``Assert`` (hoare-assert on a refuted condition).

Loops are handled Löb-style: every block specification may be *used* at any
continuation point after at least one instruction has executed, including
the one currently being proved — the step-indexed model of Iris justifies
exactly this circular use (the paper leans on it for the memcpy loop,
§2.5).  The engine enforces the "later" guard by construction: a block's
own spec is only consulted at instruction boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..itl import events as E
from ..itl.events import Reg
from ..itl.trace import Trace, substitute_event
from .. import obs
from ..obs import Counters
from ..resilience.budget import Budget, BudgetExhausted
from ..resilience.faults import TransientFault, active_injector
from ..resilience.shutdown import SHUTDOWN_REASON, shutdown_requested
from ..resilience.outcome import (
    DEGRADED,
    FAILED,
    UNKNOWN as UNKNOWN_OUTCOME,
    VERIFIED,
    BlockOutcome,
    ResidualObligation,
    RunReport,
)
from ..smt import builder as B
from ..smt.solver import (
    SAT as SAT_RESULT,
    UNKNOWN as UNKNOWN_RESULT,
    UNSAT as UNSAT_RESULT,
    LRU_COUNTERS,
    SOLVER_COUNTERS,
    Solver,
    check_cache_stats,
)
from ..smt.terms import FALSE, Term
from .assertions import (
    InstrPre,
    MemArray,
    MemPointsTo,
    MMIO,
    Pred,
    RegCol,
    RegPointsTo,
    SpecAssertion,
    substitute_assertion,
    substitute_pred,
)
from .context import Context, ProofError
from .proof import Proof, ProofStep, SideCondition
from .spec import SChoice, SRead, SWrite, SpecStuck, head_normal


@dataclass
class EngineConfig:
    max_inline_instructions: int = 4096
    trace_steps: bool = False  # print rule applications as they happen
    #: Governed mode: undecidable side conditions become residual
    #: obligations (degraded outcome) instead of hard ProofErrors, and
    #: verification reports a per-block outcome rather than raising.
    governed: bool = False
    #: Resource budget threaded into every context solver (governed mode).
    budget: Budget | None = None


class ProofEngine:
    """Verifies {P} against the program's instruction map."""

    def __init__(
        self,
        program: dict[int, Trace],
        block_specs: dict[int, Pred],
        pc_reg: Reg,
        config: EngineConfig | None = None,
    ) -> None:
        self.program = program
        self.block_specs = block_specs
        self.pc_reg = pc_reg
        self.config = config or EngineConfig()
        self.budget = self.config.budget
        self.proof = Proof()
        self._current_block = 0
        self._uniq = 0
        self._solvers: list[Solver] = []  # every context solver, for stats

    # -- top level ----------------------------------------------------------

    def verify_all(self) -> Proof:
        """Verify every block specification (the paper's independent
        per-block proofs, run in address order)."""
        for addr in sorted(self.block_specs):
            self.verify_block(addr)
        return self.proof

    def verify_all_governed(self, progress=None) -> RunReport:
        """Verify every block, degrading instead of crashing.

        Per-block outcome lattice (see :mod:`repro.resilience.outcome`):

        - ``verified`` — complete proof, no residuals;
        - ``degraded`` — proof skeleton complete, but some side conditions
          were left as residual obligations (solver ``unknown``, exhausted
          budget, injected fault);
        - ``unknown`` — the block's proof could not be completed within
          budget (no refutation found either), a drain parked it, or the
          automation raised unexpectedly;
        - ``failed`` — a genuine refutation (countermodel) or structural
          proof error.

        Every mechanism only moves outcomes *down* the lattice, so a
        ``verified`` verdict is exactly as strong as the ungoverned path.

        ``progress(addr, outcome)`` fires after each block that ran.
        """
        self.config.governed = True
        report = RunReport(proof=self.proof, budget=self.budget)
        with obs.scope() as run:
            self._verify_blocks(report, progress)
        # This run's counts reach the enclosing run scope too.
        obs.add(run.snapshot())
        totals = Counters(SOLVER_COUNTERS)
        for solver in self._solvers:
            totals.add(solver.stats.snapshot())
        report.solver_stats = totals.snapshot()
        # The check cache's activity during this run (its counts in the
        # run scope), beside its two gauges.
        report.cache_stats = {
            **check_cache_stats(),
            **{name: run["cache." + name] for name in LRU_COUNTERS},
        }
        injector = active_injector()
        if injector is not None:
            report.faults = tuple(injector.log)
        return report

    def _verify_blocks(self, report: RunReport, progress) -> None:
        for addr in sorted(self.block_specs):
            if shutdown_requested():
                # Drain: everything not yet attempted lands on the unknown
                # rung (fail-safe — never silently verified), and the report
                # stays a complete, renderable object.
                outcome = BlockOutcome(addr, UNKNOWN_OUTCOME, reason=SHUTDOWN_REASON)
                report.blocks[addr] = outcome
                self.proof.outcomes[addr] = outcome.outcome
                continue
            before = len(self.proof.residual_obligations)
            steps_before = len(self.proof.steps)
            verified_before = len(self.proof.blocks_verified)
            try:
                self.verify_block(addr)
            except BudgetExhausted as exc:
                outcome = BlockOutcome(
                    addr, UNKNOWN_OUTCOME, reason=f"budget exhausted: {exc.resource}"
                )
            except TransientFault as exc:
                outcome = BlockOutcome(
                    addr, UNKNOWN_OUTCOME, reason=f"transient fault: {exc}"
                )
            except ProofError as exc:
                if self.budget is not None and self.budget.exhausted is not None:
                    # A proof search crippled by an exhausted budget proves
                    # nothing either way: report unknown, not failed.
                    outcome = BlockOutcome(
                        addr,
                        UNKNOWN_OUTCOME,
                        reason=f"budget exhausted: {self.budget.exhausted}",
                    )
                else:
                    outcome = BlockOutcome(
                        addr, FAILED, reason=_first_line(str(exc))
                    )
            except Exception as exc:  # noqa: BLE001 — fail-soft by contract
                # The automation itself broke: nothing it recorded for this
                # block can be trusted, so the proof is cut back to the
                # block's start and the block lands unknown.
                del self.proof.steps[steps_before:]
                del self.proof.residual_obligations[before:]
                del self.proof.blocks_verified[verified_before:]
                outcome = BlockOutcome(
                    addr, UNKNOWN_OUTCOME, reason=f"{type(exc).__name__}: {exc}"
                )
            else:
                fresh = self.proof.residual_obligations[before:]
                if fresh:
                    reasons = sorted({r.reason for r in fresh})
                    outcome = BlockOutcome(
                        addr,
                        DEGRADED,
                        reason="undischarged: " + ", ".join(reasons),
                        residuals=len(fresh),
                    )
                else:
                    outcome = BlockOutcome(addr, VERIFIED)
            report.blocks[addr] = outcome
            self.proof.outcomes[addr] = outcome.outcome
            if progress is not None:
                progress(addr, outcome.outcome)

    def verify_block(self, addr: int) -> None:
        if addr not in self.program:
            raise ProofError(f"block spec at 0x{addr:x} but no instruction there")
        self._current_block = addr
        # Fresh-name numbering restarts per block, so a block's proof steps
        # (and the solver queries they induce) are a function of the block
        # alone, whichever blocks ran before it; repeated runs share SMT
        # cache entries.  Contexts are per-block, so reuse cannot collide.
        self._uniq = 0
        residuals_before = len(self.proof.residual_obligations)
        ctx = self._context_from_pred(self.block_specs[addr], addr)
        self._record(ctx, "block-start", f"0x{addr:x}", ())
        self._run(ctx, self.program[addr], {}, set(), path=(), fuel=self.config.max_inline_instructions)
        if len(self.proof.residual_obligations) == residuals_before:
            self.proof.blocks_verified.append(addr)

    def _context_from_pred(self, pred: Pred, addr: int) -> Context:
        """Universally instantiate a block spec into a fresh context."""
        solver = Solver(budget=self.budget)
        self._solvers.append(solver)
        ctx = Context(solver)
        mapping: dict[Term, Term] = {}
        for v in pred.exists:
            self._uniq += 1
            mapping[v] = B.var(f"{v.name}@{self._uniq}", v.sort)
        for a in pred.assertions:
            ctx.admit(substitute_assertion(a, mapping))
        for fact in pred.pure:
            ctx.assume(B.substitute(fact, mapping))
        # Seed the program counter (the paper's PC ↦ a conjunct).
        if self.pc_reg in ctx.regs:
            raise ProofError("block specs must not mention the PC register")
        ctx.regs[self.pc_reg] = B.bv(addr, 64)
        return ctx

    # -- trace walking ------------------------------------------------------------

    def _run(
        self,
        ctx: Context,
        trace: Trace,
        sub: dict[Term, Term],
        unbound: set[Term],
        path: tuple[int, ...],
        fuel: int,
    ) -> None:
        for event in trace.events:
            event = substitute_event(event, sub)
            alive = self._step(ctx, event, sub, unbound, path)
            if not alive:
                return  # dead branch (⊤): nothing left to prove
        if trace.cases is not None:
            self._record(ctx, "hoare-cases", f"{len(trace.cases)} subtraces", path)
            for i, subtrace in enumerate(trace.cases):
                ctx.solver.push()
                try:
                    branch_ctx = ctx.snapshot()
                    self._run(branch_ctx, subtrace, dict(sub), set(unbound), path + (i,), fuel)
                finally:
                    ctx.solver.pop()
            return
        self._continue(ctx, path, fuel)

    # -- continuation at instruction boundaries --------------------------------------

    def _continue(self, ctx: Context, path: tuple[int, ...], fuel: int) -> None:
        """{P} [] — pick hoare-instr, hoare-instr-pre, or a block spec."""
        pc = ctx.regs.get(self.pc_reg)
        if pc is None:
            raise ProofError("lost ownership of the PC register")
        if pc.is_value():
            addr = pc.value
            spec = self.block_specs.get(addr)
            if spec is not None:
                self._record(ctx, "hoare-instr-pre", f"block spec @ 0x{addr:x}", path)
                self._entail(ctx, spec, path, f"block spec @ 0x{addr:x}")
                return
            nxt = self.program.get(addr)
            if nxt is not None:
                if fuel <= 0:
                    raise ProofError(
                        "instruction budget exhausted — a loop without a "
                        "block specification (invariant)?"
                    )
                self._record(ctx, "hoare-instr", f"0x{addr:x}", path)
                self._run(ctx, nxt, {}, set(), path, fuel - 1)
                return
            self._entail_instr_pre(ctx, pc, path)
            return
        # Symbolic PC: look for a @@ Q with a provably equal address.
        self._entail_instr_pre(ctx, pc, path)

    def _entail_instr_pre(self, ctx: Context, pc: Term, path: tuple[int, ...]) -> None:
        for ip in ctx.instr_pres:
            if ctx.entails(B.eq(pc, ip.addr)):
                self._record(
                    ctx,
                    "hoare-instr-pre",
                    f"@@ at {ip.addr!r}",
                    path,
                    [(B.eq(pc, ip.addr), "PC matches code-pointer address")],
                )
                self._entail(ctx, ip.pred, path, f"@@ {ip.addr!r}")
                return
        # A block spec with a provably equal (symbolic) address?
        for addr, spec in self.block_specs.items():
            if ctx.entails(B.eq(pc, B.bv(addr, 64))):
                self._record(
                    ctx, "hoare-instr-pre", f"block spec @ 0x{addr:x} (symbolic PC)", path,
                    [(B.eq(pc, B.bv(addr, 64)), "PC matches block address")],
                )
                self._entail(ctx, spec, path, f"block 0x{addr:x}")
                return
        self._entail_instr_pre_disjunctive(ctx, pc, path)

    def _entail_instr_pre_disjunctive(
        self, ctx: Context, pc: Term, path: tuple[int, ...]
    ) -> None:
        """Case analysis over a disjunctive continuation address.

        A callee with several return sites (``bl`` from multiple places)
        returns through a PC that is only *disjunctively* constrained.  We
        collect every feasible target, prove the disjunction covers all
        possibilities (the coverage obligation), and verify each case under
        its equality assumption — the standard disjunction elimination of
        the paper's higher-order code-pointer reasoning.
        """
        candidates: list[tuple[Term, Pred, str]] = []
        for ip in ctx.instr_pres:
            if ctx.solver.check(B.eq(pc, ip.addr)) == SAT_RESULT:
                candidates.append((ip.addr, ip.pred, f"@@ {ip.addr!r}"))
        for addr, spec in self.block_specs.items():
            addr_term = B.bv(addr, 64)
            if ctx.solver.check(B.eq(pc, addr_term)) == SAT_RESULT:
                candidates.append((addr_term, spec, f"block 0x{addr:x}"))
        if not candidates:
            raise ProofError(
                f"continuation: PC {pc!r} matches no code pointer or block spec\n"
                + ctx.describe()
            )
        # A candidate may be merely *aliasing-feasible* (an unconstrained
        # code pointer could happen to equal the target); such cases need
        # not verify.  Soundness only requires that the successful cases
        # cover every possible PC value, which is the final obligation.
        succeeded: list[Term] = []
        failures: list[str] = []
        for i, (addr, pred, what) in enumerate(candidates):
            ctx.solver.push()
            res_before = len(self.proof.residual_obligations)
            try:
                branch = ctx.snapshot()
                branch.assume(B.eq(pc, addr))
                if not branch.consistent():
                    continue
                self._record(
                    branch, "hoare-instr-pre", f"{what} (case {i})", path + (i,)
                )
                self._entail(branch, pred, path + (i,), what)
                if len(self.proof.residual_obligations) > res_before:
                    # Governed mode: a case that only "succeeded" modulo
                    # residual obligations must not enter the coverage
                    # disjunction — a *wrong* (merely aliasing-feasible)
                    # candidate could otherwise park a refutable goal as a
                    # residual and be counted as covered.  Roll the residuals
                    # back and treat the case as unproven.
                    del self.proof.residual_obligations[res_before:]
                    failures.append(f"{what}: undecided side conditions")
                else:
                    succeeded.append(B.eq(pc, addr))
            except ProofError as exc:
                del self.proof.residual_obligations[res_before:]
                failures.append(f"{what}: {exc}")
            finally:
                ctx.solver.pop()
        coverage = B.or_(*succeeded) if succeeded else FALSE
        if not ctx.entails(coverage):
            detail = "\n".join(failures)
            raise ProofError(
                f"continuation: verified cases do not cover PC {pc!r}\n{detail}"
            )
        self._record(
            ctx,
            "hoare-instr-pre",
            "continuation case split",
            path,
            [(coverage, "continuation address coverage")],
        )

    # -- event rules -----------------------------------------------------------------------

    def _step(
        self,
        ctx: Context,
        event: E.Event,
        sub: dict[Term, Term],
        unbound: set[Term],
        path: tuple[int, ...],
    ) -> bool:
        """Apply the rule for one event.  Returns False when the branch died
        (reached ⊤) and verification of this path is complete."""
        if isinstance(event, E.DeclareConst):
            fresh = ctx.fresh(event.var.name, event.sort)
            self._bind(sub, unbound, event.var, fresh, declare=True)
            self._record(ctx, "hoare-declare-const", event.var.name, path)
            return True

        if isinstance(event, E.DefineConst):
            self._bind(sub, unbound, event.var, event.expr)
            self._record(ctx, "hoare-define-const", event.var.name, path)
            return True

        if isinstance(event, E.ReadReg):
            ctx_val = ctx.read_reg_value(event.reg)
            kind = ctx.find_reg(event.reg).kind
            rule = "hoare-read-reg" if kind == "points_to" else "hoare-read-reg-col"
            if event.value in unbound:
                self._rebind(sub, unbound, event.value, ctx_val)
            else:
                ctx.assume(B.eq(event.value, ctx_val))
            self._record(ctx, rule, str(event.reg), path)
            return True

        if isinstance(event, E.WriteReg):
            ctx.find_reg(event.reg)  # ownership check
            ctx.set_reg_value(event.reg, event.value)
            self._record(ctx, "hoare-write-reg", str(event.reg), path)
            return True

        if isinstance(event, E.AssumeReg):
            ctx_val = ctx.read_reg_value(event.reg)
            goal = B.eq(event.value, ctx_val)
            self._obligation(
                ctx, goal, f"assume-reg {event.reg} = {event.value!r}", path,
                "hoare-assume-reg",
            )
            return True

        if isinstance(event, E.Assert):
            expr = event.expr
            if expr is FALSE or ctx.entails(B.not_(expr)):
                self._record(ctx, "hoare-assert", "refuted branch (⊤)", path)
                return False
            ctx.assume(expr)
            if not ctx.consistent():
                self._record(ctx, "hoare-assert", "inconsistent branch (⊤)", path)
                return False
            self._record(ctx, "hoare-assert", "assumed", path)
            return True

        if isinstance(event, E.Assume):
            self._obligation(ctx, event.expr, "assume", path, "hoare-assume")
            return True

        if isinstance(event, E.ReadMem):
            return self._read_mem(ctx, event, sub, unbound, path)

        if isinstance(event, E.WriteMem):
            return self._write_mem(ctx, event, path)

        raise ProofError(f"unknown event {event!r}")

    def _read_mem(self, ctx, event: E.ReadMem, sub, unbound, path) -> bool:
        match = ctx.find_mem(event.addr, event.nbytes)
        if match.kind == "points_to":
            value = match.assertion.value
            rule = "hoare-read-mem"
        elif match.kind in ("array_const", "array_sym"):
            value = ctx.array_read(match.assertion, match.index)
            rule = "hoare-read-mem-array"
        else:  # mmio
            return self._read_mmio(ctx, event, sub, unbound, path, match)
        if event.data in unbound:
            self._rebind(sub, unbound, event.data, value)
        else:
            ctx.assume(B.eq(event.data, value))
        self._record(ctx, rule, f"{event.nbytes}B @ {event.addr!r}", path)
        return True

    def _read_mmio(self, ctx, event: E.ReadMem, sub, unbound, path, match) -> bool:
        spec = self._spec_head(ctx)
        if not isinstance(spec, SRead):
            raise ProofError(f"MMIO read but spec head is {spec!r}")
        goal = B.eq(event.addr, spec.addr)
        self._obligation(ctx, goal, "MMIO read address allowed by spec", path,
                         "hoare-read-mem-mmio")
        if spec.nbytes != event.nbytes:
            raise ProofError("MMIO read width differs from spec")
        if event.data not in unbound:
            raise ProofError("MMIO read into an already-constrained value")
        unbound.discard(event.data)  # stays a free symbol: the device chose it
        ctx.spec = spec.cont(event.data)
        return True

    def _write_mem(self, ctx, event: E.WriteMem, path) -> bool:
        match = ctx.find_mem(event.addr, event.nbytes)
        if match.kind == "points_to":
            ctx.mem_update(match.assertion, event.data)
            self._record(ctx, "hoare-write-mem", f"{event.nbytes}B @ {event.addr!r}", path)
            return True
        if match.kind in ("array_const", "array_sym"):
            ctx.array_write(match.assertion, match.index, event.data)
            self._record(
                ctx, "hoare-write-mem-array", f"{event.nbytes}B @ {event.addr!r}", path
            )
            return True
        spec = self._spec_head(ctx)
        if not isinstance(spec, SWrite):
            raise ProofError(f"MMIO write but spec head is {spec!r}")
        if spec.nbytes != event.nbytes:
            raise ProofError("MMIO write width differs from spec")
        self._obligation(ctx, B.eq(event.addr, spec.addr),
                         "MMIO write address allowed by spec", path,
                         "hoare-write-mem-mmio")
        self._obligation(ctx, B.eq(event.data, spec.value),
                         "MMIO write value allowed by spec", path,
                         "hoare-write-mem-mmio")
        ctx.spec = spec.cont
        return True

    def _spec_head(self, ctx: Context):
        if ctx.spec is None:
            raise ProofError("MMIO access but no spec(s) assertion in context")

        def decide(cond: Term):
            if ctx.entails(cond):
                return True
            if ctx.entails(B.not_(cond)):
                return False
            return None

        try:
            head = head_normal(ctx.spec, decide)
        except SpecStuck as exc:
            raise ProofError(str(exc)) from exc
        ctx.spec = head
        return head

    # -- entailment (instr-pre-intro / hoare-instr-pre) ------------------------------------------

    def _entail(self, ctx: Context, pred: Pred, path: tuple[int, ...], what: str) -> None:
        """Prove  ctx ⊨ ∃ xs. assertions ∗ pure  (consuming resources)."""
        if not ctx.consistent():
            self._record(ctx, "entail", f"{what}: vacuous (inconsistent context)", path)
            return
        evars: dict[Term, Term | None] = {v: None for v in pred.exists}
        consumed_regs: set[Reg] = set()

        def resolve(term: Term) -> Term:
            bound = {k: v for k, v in evars.items() if v is not None}
            return B.substitute(term, bound)

        def unify(pattern: Term | None, value: Term, what_: str) -> None:
            if pattern is None:
                return
            pattern = resolve(pattern)
            if pattern in evars and evars[pattern] is None:
                evars[pattern] = value
                return
            remaining = [v for v in pattern.free_vars() if v in evars and evars[v] is None]
            if remaining:
                solved = _solve_linear_evar(pattern, value, evars)
                if solved is None:
                    raise ProofError(
                        f"{what}: cannot unify {pattern!r} with {value!r} "
                        f"(unbound existentials {sorted(v.name for v in remaining)})"
                    )
                var, solution = solved
                evars[var] = solution
                return
            self._obligation(ctx, B.eq(pattern, value), f"{what}: {what_}", path, "entail-eq")

        for a in pred.assertions:
            if isinstance(a, RegPointsTo):
                self._entail_reg(ctx, a.reg, a.value, unify, consumed_regs, what)
            elif isinstance(a, RegCol):
                for reg, val in a.entries:
                    self._entail_reg(ctx, reg, val, unify, consumed_regs, what)
            elif isinstance(a, MemPointsTo):
                addr = resolve(a.addr)
                match = ctx.find_mem(addr, a.nbytes)
                if match.kind == "points_to":
                    unify(a.value, match.assertion.value, f"mem @ {addr!r}")
                    ctx.mems.remove(match.assertion)
                elif match.kind == "array_const":
                    unify(a.value, match.assertion.values[match.index], f"mem @ {addr!r}")
                else:
                    raise ProofError(f"{what}: cannot match mem points-to at {addr!r}")
            elif isinstance(a, MemArray):
                addr = resolve(a.addr)
                found = None
                for arr in ctx.arrays:
                    if (
                        arr.elem_bytes == a.elem_bytes
                        and len(arr.values) == len(a.values)
                        and ctx.entails(B.eq(addr, arr.addr))
                    ):
                        found = arr
                        break
                if found is None:
                    raise ProofError(f"{what}: no matching array at {addr!r}")
                for i, pat in enumerate(a.values):
                    unify(pat, found.values[i], f"array[{i}] @ {addr!r}")
                ctx.arrays.remove(found)
            elif isinstance(a, MMIO):
                addr = resolve(a.addr)
                found = next(
                    (io for io in ctx.mmios
                     if io.nbytes == a.nbytes and ctx.entails(B.eq(addr, io.addr))),
                    None,
                )
                if found is None:
                    raise ProofError(f"{what}: no MMIO resource at {addr!r}")
                ctx.mmios.remove(found)
            elif isinstance(a, InstrPre):
                addr = resolve(a.addr)
                target = substitute_pred(
                    a.pred, {k: v for k, v in evars.items() if v is not None}
                )
                found = next(
                    (ip for ip in ctx.instr_pres
                     if ctx.entails(B.eq(addr, ip.addr))
                     and preds_match(ctx, target, ip.pred)),
                    None,
                )
                if found is None:
                    raise ProofError(
                        f"{what}: no matching @@ assertion for {addr!r} "
                        "(code-pointer predicates must match up to provable "
                        "equality)"
                    )
                ctx.instr_pres.remove(found)
            elif isinstance(a, SpecAssertion):
                # Resolve decided SChoice layers first: after a polling
                # branch the context spec is a choice whose condition the
                # branch facts decide (the UART loop's b[5]).
                current = ctx.spec
                while isinstance(current, SChoice):
                    if ctx.entails(current.cond):
                        current = current.then
                    elif ctx.entails(B.not_(current.cond)):
                        current = current.els
                    else:
                        break
                ctx.spec = current
                if current is not a.spec and current != a.spec:
                    raise ProofError(
                        f"{what}: spec state mismatch: context {current!r} "
                        f"vs required {a.spec!r}"
                    )
                ctx.spec = None
            else:
                raise ProofError(f"{what}: unsupported assertion {a!r}")

        for fact in pred.pure:
            fact = resolve(fact)
            loose = [v for v in fact.free_vars() if v in evars and evars[v] is None]
            if loose:
                raise ProofError(
                    f"{what}: pure fact {fact!r} mentions unbound existentials"
                )
            self._obligation(ctx, fact, f"{what}: pure side condition", path, "entail-pure")
        self._record(ctx, "entail", what, path)

    def _entail_reg(self, ctx, reg, pattern, unify, consumed: set, what: str) -> None:
        if reg in consumed:
            raise ProofError(f"{what}: register {reg} required twice")
        value = ctx.read_reg_value(reg)
        consumed.add(reg)
        unify(pattern, value, f"register {reg}")

    # -- bookkeeping helpers ----------------------------------------------------------------------------

    def _bind(self, sub, unbound, var: Term, value: Term, declare: bool = False) -> None:
        sub[var] = value
        if declare:
            unbound.add(value)

    def _rebind(self, sub, unbound, fresh_var: Term, value: Term) -> None:
        """A fresh (declared) variable got pinned by a read: rewrite it to
        the context's value everywhere downstream."""
        unbound.discard(fresh_var)
        mapping = {fresh_var: value}
        for k in list(sub):
            sub[k] = B.substitute(sub[k], mapping)
        # Events already emitted used the fresh var only via the solver,
        # where the equality is recorded:
        # (no ctx terms mention it before the binding read).
        sub[fresh_var] = value

    def _obligation(self, ctx, goal: Term, description: str, path, rule: str) -> None:
        status = ctx.solver.check(B.not_(goal))
        if status == UNSAT_RESULT:
            self._record(ctx, rule, description, path, [(goal, description)])
            return
        if not ctx.consistent():
            self._record(ctx, rule, f"{description} (vacuous)", path)
            return
        if self.config.governed and status == UNKNOWN_RESULT:
            # The last rung of the degradation ladder: the solver could not
            # decide the side condition, so it becomes a structured residual
            # obligation on the proof rather than a guess or a crash.  The
            # block's outcome is capped at ``degraded``.
            reason = ctx.solver.last_unknown_reason or "solver-unknown"
            budget = ctx.solver.budget
            if budget is not None and budget.exhausted is not None:
                reason = f"budget:{budget.exhausted}"
            self.proof.residual_obligations.append(
                ResidualObligation(
                    block=self._current_block,
                    description=description,
                    goal=goal,
                    assumptions=tuple(ctx.solver.assertions),
                    reason=reason,
                )
            )
            self._record(ctx, "residual", f"{description} [{reason}]", path)
            return
        raise ProofError(
            f"side condition not provable: {description}: {goal!r}\n"
            f"{_countermodel(ctx, goal)}"
            + ctx.describe()
        )

    def _record(
        self,
        ctx: Context,
        rule: str,
        detail: str,
        path: tuple[int, ...],
        side_conditions: list[tuple[Term, str]] | None = None,
    ) -> None:
        conditions = tuple(
            SideCondition(tuple(ctx.solver.assertions), goal, desc)
            for goal, desc in (side_conditions or [])
        )
        step = ProofStep(rule, detail, self._current_block, path, conditions)
        self.proof.add(step)
        if self.config.trace_steps:
            print(f"[{rule}] {detail}")


def _countermodel(ctx: Context, goal: Term) -> str:
    """Render a concrete countermodel for an unprovable side condition.

    The solver already reported SAT for ``assumptions ∧ ¬goal``; asking for
    the model shows the user the register/ghost values that violate the
    goal — far more actionable than the raw term.
    """
    try:
        if ctx.solver.check(B.not_(goal)) != SAT_RESULT:
            return ""
        model = ctx.solver.model()
    except Exception:  # model extraction is best-effort diagnostics only
        return ""
    relevant = sorted(goal.free_vars(), key=lambda v: v.name)
    if not relevant:
        return ""
    lines = ", ".join(
        f"{v.name} = {model[v]:#x}" if isinstance(model.get(v), int) else
        f"{v.name} = {model.get(v)}"
        for v in relevant
        if v in model
    )
    return f"countermodel: {lines}\n" if lines else ""


def _solve_linear_evar(
    pattern: Term, value: Term, evars: dict[Term, Term | None]
) -> tuple[Term, Term] | None:
    """Solve ``pattern = value`` for a single unbound existential appearing
    linearly with coefficient ±1 (e.g. pattern ``sp - 16``: sp := value+16).

    Returns (evar, solution) or None when the pattern is not of that shape.
    """
    if not pattern.sort.is_bv():
        return None
    from ..smt.builder import _decompose_linear, _recompose_linear

    width = pattern.sort.width
    coeffs: dict[Term, int] = {}
    const = _decompose_linear(pattern, 1, 0, coeffs)
    mask = (1 << width) - 1
    target = None
    for atom, coeff in coeffs.items():
        has_unbound = any(
            v in evars and evars[v] is None for v in atom.free_vars()
        )
        if not has_unbound:
            continue
        if target is not None:
            return None  # more than one unknown
        if atom not in evars or evars[atom] is not None:
            return None  # the unknown is buried inside a compound atom
        if coeff & mask not in (1, mask):
            return None  # coefficient is not ±1
        target = (atom, coeff & mask)
    if target is None:
        return None
    var, coeff = target
    rest_coeffs = {t: c for t, c in coeffs.items() if t is not var}
    rest = _recompose_linear(width, const, rest_coeffs)
    if coeff == 1:  # value = var + rest
        return var, B.bvsub(value, rest)
    return var, B.bvsub(rest, value)  # value = -var + rest


def preds_match(ctx: Context, required: Pred, known: Pred) -> bool:
    """Are two code-pointer predicates interchangeable in this context?

    Structural skeleton equality with value terms compared up to *provable*
    equality under the current pure context.  This is what lets a callee's
    return-site predicate — phrased over the callee's view of the state —
    match the caller's continuation predicate phrased over the caller's
    (e.g. ``caller_post(r0 - 1)`` vs ``caller_post(ite(ra = site1, a, a-1))``
    once ``ra = site1`` is assumed).
    """
    if required == known:
        return True
    if required.exists != known.exists:
        return False
    if len(required.assertions) != len(known.assertions):
        return False
    if len(required.pure) != len(known.pure):
        return False

    def terms_eq(x: Term | None, y: Term | None) -> bool:
        if x is None or y is None:
            return x is None and y is None
        if x is y:
            return True
        if not x.sort == y.sort:
            return False
        return ctx.entails(B.eq(x, y))

    for p, q in zip(required.assertions, known.assertions):
        if type(p) is not type(q):
            return False
        if isinstance(p, RegPointsTo):
            if p.reg != q.reg or not terms_eq(p.value, q.value):
                return False
        elif isinstance(p, RegCol):
            if [r for r, _ in p.entries] != [r for r, _ in q.entries]:
                return False
            if not all(
                terms_eq(v1, v2)
                for (_, v1), (_, v2) in zip(p.entries, q.entries)
            ):
                return False
        elif isinstance(p, MemPointsTo):
            if p.nbytes != q.nbytes or not terms_eq(p.addr, q.addr):
                return False
            if not terms_eq(p.value, q.value):
                return False
        elif isinstance(p, MemArray):
            if p.elem_bytes != q.elem_bytes or len(p.values) != len(q.values):
                return False
            if not terms_eq(p.addr, q.addr):
                return False
            if not all(terms_eq(v1, v2) for v1, v2 in zip(p.values, q.values)):
                return False
        elif isinstance(p, MMIO):
            if p.nbytes != q.nbytes or not terms_eq(p.addr, q.addr):
                return False
        elif isinstance(p, InstrPre):
            if not terms_eq(p.addr, q.addr):
                return False
            if not preds_match(ctx, p.pred, q.pred):
                return False
        elif isinstance(p, SpecAssertion):
            if p.spec is not q.spec and p.spec != q.spec:
                return False
        else:
            return False
    for f1, f2 in zip(required.pure, known.pure):
        if f1 is not f2 and not ctx.entails(B.eq(f1, f2)):
            return False
    return True


def _first_line(text: str) -> str:
    line = text.splitlines()[0] if text else ""
    return line if len(line) <= 160 else line[:157] + "..."


def verify_program(
    program: dict[int, Trace],
    block_specs: dict[int, Pred],
    pc_reg: Reg,
    config: EngineConfig | None = None,
    budget: Budget | None = None,
    progress=None,
) -> RunReport:
    """Verify a program under resource governance.

    Returns a :class:`~repro.resilience.outcome.RunReport` with a per-block
    outcome of ``verified | degraded | unknown | failed`` — it never raises
    on verification failure, budget exhaustion, or injected faults.  Use
    :meth:`ProofEngine.verify_all` directly for the historical raise-on-
    failure behaviour.  ``progress(addr, outcome)`` fires after each block.
    """
    config = config or EngineConfig()
    config.governed = True
    if budget is not None:
        config.budget = budget
    engine = ProofEngine(program, block_specs, pc_reg, config)
    return engine.verify_all_governed(progress)
