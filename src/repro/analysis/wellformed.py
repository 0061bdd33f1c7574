"""Well-sortedness / SSA checking for ITL traces.

The operational semantics (Fig. 10) and the proof automation both *assume*
traces are well-formed: every SMT term is well-sorted with exact bitvector
widths, every variable is defined (``DeclareConst``/``DefineConst``) before
use and never redefined, register event values match the declared register
widths, memory event data is ``8 * size`` bits wide, and ``Assert`` /
``Assume`` bodies are Bool.  Isla guarantees this for the traces it emits;
our executor, the trace simplifier, the on-disk cache, and hand-written
test traces can all violate it — and a violation surfaces, if at all, as a
baffling failure deep inside the SMT solver or the ITL runner.

:func:`check_trace` is a linear-time checker for the judgement.  It is
wired in at the three trust boundaries:

- trace emission (:mod:`repro.isla.executor`) as a debug assertion,
- cache load (:mod:`repro.cache.store`) — a malformed deserialised trace
  reads as a miss and is evicted instead of poisoning the proof,
- ITL replay (:mod:`repro.itl.opsem`) before a trace is first executed,
  unless the emission check already passed for that trace object.

Traces may legitimately mention *external* variables they never declare
(symbolic opcode bits, device-chosen values); these are accepted unless
``strict=True`` or an explicit ``extern`` allow-set is given.
"""

from __future__ import annotations

import os
from typing import Callable

from ..itl import events as E
from ..itl.trace import Trace
from ..smt.sorts import sort_to_text
from ..smt.terms import IllSortedTerm, Term, infer_sort
from .findings import ERROR, Finding

__all__ = [
    "WellFormednessError",
    "assert_wellformed",
    "check_trace",
    "debug_checks_enabled",
    "is_wellformed",
    "maybe_assert_wellformed",
]


class WellFormednessError(Exception):
    """A trace failed the well-formedness judgement (raised by
    :func:`assert_wellformed`; carries the findings)."""

    def __init__(self, findings: list[Finding], where: str = "") -> None:
        self.findings = findings
        head = f"{where}: " if where else ""
        lines = "\n".join(f.render() for f in findings[:8])
        more = f"\n... and {len(findings) - 8} more" if len(findings) > 8 else ""
        super().__init__(f"{head}ill-formed trace:\n{lines}{more}")


def check_trace(
    trace: Trace,
    regfile=None,
    extern: set[str] | None = None,
    strict: bool = False,
    max_findings: int = 64,
) -> list[Finding]:
    """Check the well-formedness judgement; returns findings (empty = ok).

    ``regfile`` is an optional :class:`~repro.sail.registers.RegisterFile`;
    with it, register event widths are checked against the declarations.
    ``extern`` is an optional allow-set of undeclared variable names;
    ``strict=True`` reports *any* undeclared variable (``WF009``).  The walk
    is linear in events and in distinct term DAG nodes (term sorts are
    memoised process-wide).
    """
    checker = _Checker(regfile, extern, strict, max_findings)
    checker.bound_names = _bound_names(trace)
    checker.walk(trace, dict(), "")
    return checker.findings


def _bound_names(trace: Trace) -> set[str]:
    """Names bound by any ``DeclareConst``/``DefineConst`` in the tree.

    Used to tell a genuine external variable (never bound anywhere) from a
    scoping violation (bound, but not on the path before the use): sibling
    branches legitimately reuse names — each is a separate symbolic run —
    so SSA is judged per root-to-leaf path."""
    names: set[str] = set()
    for j in trace.iter_events():
        if isinstance(j, (E.DeclareConst, E.DefineConst)) and j.var.is_var():
            names.add(j.var.name)
    return names


def is_wellformed(trace: Trace, regfile=None, **kwargs) -> bool:
    """True when :func:`check_trace` reports no error-severity findings."""
    return not any(
        f.severity == ERROR for f in check_trace(trace, regfile, **kwargs)
    )


def assert_wellformed(
    trace: Trace, regfile=None, where: str | Callable[[], str] = "", **kwargs
) -> None:
    """Raise :class:`WellFormednessError` unless the trace checks clean."""
    findings = check_trace(trace, regfile, **kwargs)
    errors = [f for f in findings if f.severity == ERROR]
    if errors:
        raise WellFormednessError(errors, where() if callable(where) else where)


#: ``$REPRO_WF_CHECK`` overrides the default (on unless ``python -O``).
def debug_checks_enabled() -> bool:
    flag = os.environ.get("REPRO_WF_CHECK")
    if flag is not None:
        return flag not in ("0", "", "off", "no")
    return __debug__


def maybe_assert_wellformed(
    trace: Trace, regfile=None, where: str | Callable[[], str] = ""
) -> bool:
    """The debug-assert flavour used at trace-emission time: no-op when
    debug checks are disabled (``python -O`` or ``REPRO_WF_CHECK=0``).

    ``where`` may be a function returning the location, called only to
    word a failure.  Returns True when the check ran and passed, False when
    it was skipped.
    """
    if not debug_checks_enabled():
        return False
    assert_wellformed(trace, regfile, where)
    return True


# ---------------------------------------------------------------------------
# The walk.
# ---------------------------------------------------------------------------


#: An event's location: the case path prefix and its index, formatted
#: ``cases[0].events[3]`` only when a finding needs it.
_Where = tuple[str, int]


class _Checker:
    def __init__(self, regfile, extern, strict, max_findings) -> None:
        self.regfile = regfile
        self.extern = extern
        self.strict = strict
        self.max_findings = max_findings
        self.findings: list[Finding] = []
        #: names bound somewhere in the tree (filled in by check_trace).
        self.bound_names: set[str] = set()
        #: externs already accepted (name -> var), for consistency checks.
        self.externs_seen: dict[str, Term] = {}

    def report(self, code: str, message: str, where: _Where) -> None:
        if len(self.findings) < self.max_findings:
            prefix, i = where
            self.findings.append(
                Finding(code, ERROR, message, f"{prefix}events[{i}]")
            )

    def walk(self, trace: Trace, scope: dict[str, Term], prefix: str) -> None:
        for i, event in enumerate(trace.events):
            if len(self.findings) >= self.max_findings:
                return
            self.event(event, scope, (prefix, i))
        if trace.cases is not None:
            for i, sub in enumerate(trace.cases):
                self.walk(sub, dict(scope), f"{prefix}cases[{i}].")

    # -- events ------------------------------------------------------------

    def event(self, event: E.Event, scope: dict[str, Term], where: _Where) -> None:
        if isinstance(event, E.DeclareConst):
            if not event.var.is_var():
                self.report("WF007", f"declare-const of non-variable {event.var!r}", where)
                return
            if event.var.sort != event.sort:
                self.report(
                    "WF007",
                    f"declare-const {event.var.name}: variable sort "
                    f"{sort_to_text(event.var.sort)} != declared "
                    f"{sort_to_text(event.sort)}",
                    where,
                )
            self.define(event.var, scope, where)
            return
        if isinstance(event, E.DefineConst):
            if not event.var.is_var():
                self.report("WF007", f"define-const of non-variable {event.var!r}", where)
                return
            self.term(event.expr, scope, where)
            if event.var.sort != event.expr.sort:
                self.report(
                    "WF007",
                    f"define-const {event.var.name}: variable sort "
                    f"{sort_to_text(event.var.sort)} != expression sort "
                    f"{sort_to_text(event.expr.sort)}",
                    where,
                )
            self.define(event.var, scope, where)
            return
        if isinstance(event, (E.ReadReg, E.WriteReg, E.AssumeReg)):
            self.term(event.value, scope, where)
            if not event.value.sort.is_bv():
                self.report(
                    "WF004",
                    f"register event on {event.reg} carries a non-bitvector "
                    f"value of sort {sort_to_text(event.value.sort)}",
                    where,
                )
                return
            if self.regfile is not None:
                try:
                    declared = self.regfile.width_of(event.reg)
                except KeyError:
                    self.report(
                        "WF004", f"register {event.reg} is not declared", where
                    )
                    return
                if event.value.width != declared:
                    self.report(
                        "WF004",
                        f"register {event.reg}: event width "
                        f"{event.value.width} != declared width {declared}",
                        where,
                    )
            return
        if isinstance(event, (E.ReadMem, E.WriteMem)):
            self.term(event.addr, scope, where)
            self.term(event.data, scope, where)
            if not event.addr.sort.is_bv():
                self.report(
                    "WF008",
                    f"memory address has sort {sort_to_text(event.addr.sort)}, "
                    "expected a bitvector",
                    where,
                )
            if not isinstance(event.nbytes, int) or event.nbytes <= 0:
                self.report("WF005", f"memory event size {event.nbytes!r}", where)
            elif not event.data.sort.is_bv() or event.data.width != 8 * event.nbytes:
                have = (
                    f"{event.data.width} bits"
                    if event.data.sort.is_bv()
                    else sort_to_text(event.data.sort)
                )
                self.report(
                    "WF005",
                    f"memory data is {have}, expected {8 * event.nbytes} bits "
                    f"(size {event.nbytes})",
                    where,
                )
            return
        if isinstance(event, (E.Assert, E.Assume)):
            self.term(event.expr, scope, where)
            if not event.expr.sort.is_bool():
                kind = "assert" if isinstance(event, E.Assert) else "assume"
                self.report(
                    "WF006",
                    f"{kind} body has sort {sort_to_text(event.expr.sort)}, "
                    "expected Bool",
                    where,
                )
            return
        self.report("WF001", f"unknown event {event!r}", where)

    # -- variables and terms ------------------------------------------------

    def define(self, var: Term, scope: dict[str, Term], where: _Where) -> None:
        name = var.name
        if name in scope:
            self.report("WF003", f"variable {name} defined twice", where)
            return
        scope[name] = var

    def term(self, term: Term, scope: dict[str, Term], where: _Where) -> None:
        try:
            infer_sort(term)
        except IllSortedTerm as exc:
            self.report("WF001", str(exc), where)
            return
        for v in term.free_vars():
            name = v.name
            known = scope.get(name)
            if known is not None:
                if known is not v:
                    self.report(
                        "WF002",
                        f"variable {name} used at sort "
                        f"{sort_to_text(v.sort)} but defined at sort "
                        f"{sort_to_text(known.sort)}",
                        where,
                    )
                continue
            if name in self.bound_names:
                # Bound somewhere in the tree but not on this path at this
                # point: either used before its definition or leaked from a
                # sibling branch — both are scoping violations.
                self.report(
                    "WF002", f"variable {name} used before its definition", where
                )
                continue
            seen = self.externs_seen.get(name)
            if seen is not None:
                if seen is not v:
                    self.report(
                        "WF002",
                        f"external variable {name} used at two sorts",
                        where,
                    )
                continue
            if self.extern is not None and name not in self.extern:
                self.report(
                    "WF002",
                    f"variable {name} is neither defined nor a declared "
                    "external",
                    where,
                )
                continue
            if self.strict:
                self.report("WF009", f"undeclared external variable {name}", where)
                continue
            self.externs_seen[name] = v
