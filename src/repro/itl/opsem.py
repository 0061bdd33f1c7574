"""Operational semantics of the Isla trace language (Fig. 10).

The semantics is a labelled transition system over configurations: either a
pair ⟨t, Σ⟩ of trace and machine state, or the final configurations ⊤
(success / execution discarded) and ⊥ (failure).  It is *non-deterministic*:
``DeclareConst`` picks an arbitrary value of the right type, ``Cases`` picks
a subtrace, and those picks are later *restricted* by ``ReadReg`` /
``Assert`` events — picks that violate them end in ⊤ and need not be
considered (step-read-reg-neq, step-assert-false).

:class:`Runner` executes the semantics concretely.  It resolves the
non-determinism *angelically but mechanically*:

- a symbolic constant stays unbound until the first constraining event
  (``ReadReg``/``ReadMem``) pins it — exactly the executions that survive
  (all other picks reach ⊤ immediately, so omitting them is faithful);
- ``Cases`` is resolved by speculative execution with rollback: subtraces
  whose ``Assert`` fails end in ⊤ and are discarded;
- reads from unmapped memory consult a *device* oracle and emit the visible
  label R(a, v), writes emit W(a, v)  (step-read/write-mem-event);
- falling off the instruction map emits E(a) and stops (step-nil-end).

Reaching ⊥ (a violated ``Assume``/``AssumeReg``, a partially-mapped access,
or a stuck expression) raises :class:`Failure` — this is precisely what a
successful Islaris verification rules out (Theorem 1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

from ..smt import Term, evaluate
from ..smt.interp import EvalError
from ..smt.sorts import BitVecSort
from . import events as E
from .events import Label, LabelEnd, LabelRead, LabelWrite
from .machine import MachineState
from .trace import Trace


class Failure(Exception):
    """The configuration stepped to ⊥."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Traces that already passed the well-formedness check, keyed by
#: ``id``.  A hit must be the very same object (``Trace.__hash__`` is
#: structural, so a set would re-hash the whole tree on every lookup); the
#: values are weak, so an entry dies with its trace and a recycled ``id``
#: never matches.
_wf_checked: "weakref.WeakValueDictionary[int, Trace]" = (
    weakref.WeakValueDictionary()
)


def note_wellformed(trace: Trace) -> None:
    """Record that ``trace`` passed the well-formedness check, so its
    replays skip :func:`_check_wellformed`.

    The executor calls this once its emission check
    (``check_trace(trace, regfile)``) has passed.  That check implies
    this module's (``check_trace(trace)``): the register file only adds
    findings — every finding is an error, and the register-width branch
    returns early only after it has reported — so a trace with no findings
    under the register file has none without it.
    """
    _wf_checked[id(trace)] = trace


def _check_wellformed(trace: Trace) -> None:
    """Reject an ill-formed trace before replaying it (⊥, not a crash).

    The operational semantics only makes sense over well-formed traces; an
    ill-sorted term or SSA violation would otherwise surface as a stuck
    expression deep inside ``evaluate``.  Skipped under ``python -O`` /
    ``REPRO_WF_CHECK=0``, at most once per trace object otherwise.
    """
    from ..analysis.wellformed import debug_checks_enabled, is_wellformed

    if not debug_checks_enabled() or _wf_checked.get(id(trace)) is trace:
        return
    if not is_wellformed(trace):
        from ..analysis.wellformed import check_trace

        first = next(iter(check_trace(trace)), None)
        raise Failure(
            "ill-formed trace: " + (first.render() if first else "unknown")
        )
    note_wellformed(trace)


class Discarded(Exception):
    """The configuration stepped to ⊤ (internal control flow of the runner)."""


@dataclass
class RunResult:
    """Outcome of running the operational semantics.

    status is one of:
      - ``"end"``: stopped with E(a) after leaving the instruction map,
      - ``"discarded"``: the execution reached ⊤ mid-instruction,
      - ``"fuel"``: the step budget ran out (still running).
    """

    status: str
    labels: list[Label]
    instructions: int
    events: int


DeviceFn = Callable[[int, int], int]


def _default_device(addr: int, nbytes: int) -> int:
    return 0


@dataclass
class Runner:
    """Concrete executor for ITL machine configurations."""

    state: MachineState
    device: DeviceFn = _default_device
    labels: list[Label] = field(default_factory=list)
    instructions: int = 0
    events: int = 0

    # -- top level ----------------------------------------------------------

    def run(self, max_instructions: int = 10_000) -> RunResult:
        """Run ⟨[], Σ⟩ —*→ until E(a), ⊤, or the fuel runs out."""
        while self.instructions < max_instructions:
            pc = self.state.read_reg(self.state.pc_reg)
            if pc is None:
                raise Failure("PC register unmapped")
            trace = self.state.instr_at(pc)
            if trace is None:
                self.labels.append(LabelEnd(pc))  # step-nil-end
                return self._result("end")
            self.instructions += 1
            try:
                self.run_trace(trace)
            except Discarded:
                return self._result("discarded")
        return self._result("fuel")

    def _result(self, status: str) -> RunResult:
        return RunResult(status, list(self.labels), self.instructions, self.events)

    # -- one trace -------------------------------------------------------------

    def run_trace(self, trace: Trace, env: dict[Term, object] | None = None) -> None:
        """Execute one instruction trace to completion (⟨t,Σ⟩ —*→ ⟨[],Σ'⟩).

        Raises :class:`Failure` for ⊥ and :class:`Discarded` for ⊤.
        """
        if env is None:
            # Top-level entry (sub-case replays share their parent's env
            # and were covered by the parent's check).
            _check_wellformed(trace)
            env = {}
        for idx, event in enumerate(trace.events):
            self.events += 1
            self._step(event, env)
        if trace.cases is not None:
            self._run_cases(trace.cases, env)

    def _run_cases(self, cases: tuple[Trace, ...], env: dict[Term, object]) -> None:
        # step-cases: try subtraces in order; ⊤ outcomes are discarded and the
        # next subtrace is tried (they are unreachable executions).  ⊥
        # propagates: the verification must rule it out on *every* branch.
        for sub in cases:
            saved_state = self.state.copy()
            saved_labels = list(self.labels)
            saved_env = dict(env)
            try:
                self.run_trace(sub, env)
                return
            except Discarded:
                self.state = saved_state
                self.labels = saved_labels
                env.clear()
                env.update(saved_env)
        raise Discarded  # every subtrace ended in ⊤

    # -- single events ------------------------------------------------------------

    def _step(self, event: E.Event, env: dict[Term, object]) -> None:
        if isinstance(event, E.DeclareConst):
            # step-declare-const: value chosen lazily (see module docstring).
            return
        if isinstance(event, E.DefineConst):
            env[event.var] = self._eval(event.expr, env)
            return
        if isinstance(event, E.ReadReg):
            actual = self.state.read_reg(event.reg)
            if actual is None:
                raise Failure(f"read of unmapped register {event.reg}")
            self._constrain(event.value, actual, env, f"ReadReg {event.reg}")
            return
        if isinstance(event, E.WriteReg):
            self.state.write_reg(event.reg, self._eval(event.value, env))
            return
        if isinstance(event, E.AssumeReg):
            actual = self.state.read_reg(event.reg)
            expected = self._eval(event.value, env)
            if actual is None or actual != expected:
                # step-fail: AssumeReg only steps when R[r] = v.
                raise Failure(
                    f"AssumeReg {event.reg}: machine has {actual!r}, "
                    f"Isla assumed {expected!r}"
                )
            return
        if isinstance(event, E.Assert):
            value = self._eval(event.expr, env)
            if not value:
                raise Discarded  # step-assert-false -> ⊤
            return
        if isinstance(event, E.Assume):
            value = self._eval(event.expr, env)
            if not value:
                raise Failure("Assume violated")  # step-fail -> ⊥
            return
        if isinstance(event, E.ReadMem):
            addr = self._eval(event.addr, env)
            n = event.nbytes
            if self.state.mem_mapped(addr, n):
                actual = self.state.read_mem(addr, n)
                self._constrain(event.data, actual, env, f"ReadMem 0x{addr:x}")
            elif self.state.mem_unmapped(addr, n):
                data = self.device(addr, n) & ((1 << (8 * n)) - 1)
                self._constrain(event.data, data, env, f"MMIO read 0x{addr:x}")
                self.labels.append(LabelRead(addr, data, n))
            else:
                raise Failure(f"partially mapped read at 0x{addr:x}")
            return
        if isinstance(event, E.WriteMem):
            addr = self._eval(event.addr, env)
            data = self._eval(event.data, env)
            n = event.nbytes
            if self.state.mem_mapped(addr, n):
                self.state.write_mem(addr, data, n)
            elif self.state.mem_unmapped(addr, n):
                self.labels.append(LabelWrite(addr, data, n))
            else:
                raise Failure(f"partially mapped write at 0x{addr:x}")
            return
        raise Failure(f"unknown event {event!r}")

    # -- helpers --------------------------------------------------------------------

    def _eval(self, expr: Term, env: dict[Term, object]):
        try:
            return evaluate(expr, env)
        except EvalError as exc:
            raise Failure(f"stuck expression: {exc}") from exc

    def _constrain(self, value_term: Term, actual, env: dict[Term, object], what: str):
        """Impose ``value_term = actual``.

        If the term is an unbound variable, bind it (the surviving pick of
        step-declare-const); otherwise evaluate and compare — a mismatch is
        step-read-*-neq, i.e. ⊤.
        """
        if value_term.is_var() and value_term not in env:
            if isinstance(value_term.sort, BitVecSort):
                actual_int = int(actual)
                env[value_term] = actual_int & ((1 << value_term.sort.width) - 1)
            else:
                env[value_term] = bool(actual)
            return
        try:
            expected = evaluate(value_term, env)
        except EvalError:
            # A compound term with unbound vars: the general semantics would
            # solve for them; Isla traces constrain fresh vars directly, so
            # reaching this means the trace is malformed for concrete runs.
            raise Failure(f"{what}: cannot resolve {value_term!r}") from None
        if expected != actual:
            raise Discarded  # step-read-*-neq -> ⊤
