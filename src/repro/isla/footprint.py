"""Post-generation trace simplification.

Isla "performs some additional simplification of traces" (§3).  We implement
the passes that matter for trace size and readability:

- *dead definition elimination*: ``DeclareConst``/``DefineConst`` whose
  variable is never used downstream are dropped (the Sail models compute
  plenty of values — arithmetic flags, alternate results — that a given
  instruction instance discards, cf. Fig. 2's discussion);
- *dead register read elimination*: a ``ReadReg`` whose variable no other
  event uses is dropped;
- *constant definition inlining*: a definition whose body folded to a
  literal is substituted into the remaining trace and removed;
- *trivial assertion removal*: ``Assert(true)`` / ``Assume(true)`` vanish.

All passes preserve the operational semantics of the trace (tested against
the ITL runner in ``tests/isla``).

Cost model.  Most traces the executor emits are already clean, so the
simplifier is built to do no rebuilding on them: one inlining sweep, one
count of variable uses over the tree, one dropping sweep, and the input
object back when nothing changed.  This computes the same trace as running
the passes in rounds to a fixed point (``tests/_reference.py``):

- inlining reaches its own fixed point in one sweep (substitution happens
  before each event is tested), and dropping events never creates a literal
  definition or a trivial assertion, so inlining runs once, first;
- the drop rules only get truer as events go — a use count only falls —
  so dropping in any order until no rule applies removes the same events.

Use counts are global over the tree, not per path: sibling branches may
reuse a variable name, and a use in one keeps the other's definition.
"""

from __future__ import annotations

from ..itl import events as E
from ..itl.trace import Trace, substitute_event
from ..smt.terms import TRUE, Term


def simplify_trace(trace: Trace) -> Trace:
    """The simplified trace; ``trace`` itself when no pass changes it."""
    trace = _inline_constant_defs(trace)
    counts: dict[Term, int] = {}
    for j in trace.iter_events():
        for v in _event_uses(j):
            counts[v] = counts.get(v, 0) + 1
    while True:
        out = _drop_dead(trace, counts)
        if out is trace:
            return out
        trace = out


_NO_USES: frozenset = frozenset()


def _event_uses(j: E.Event) -> frozenset[Term]:
    """Variables an event *uses* (reads).  A binding ``ReadReg`` counts as
    one use of its own variable."""
    if isinstance(j, (E.ReadReg, E.WriteReg, E.AssumeReg)):
        return j.value.free_vars()
    if isinstance(j, (E.DefineConst, E.Assert, E.Assume)):
        return j.expr.free_vars()
    if isinstance(j, (E.ReadMem, E.WriteMem)):
        return j.data.free_vars() | j.addr.free_vars()
    return _NO_USES


def _is_dead(j: E.Event, counts: dict[Term, int]) -> bool:
    """May ``j`` be dropped, given the use counts of the current tree?

    The real Sail models read many registers (all four condition flags for
    any conditional, nine system registers for a branch, ...) whose values a
    specific instruction instance discards; Isla elides those reads — the
    trace in Fig. 6 reads only ``PSTATE.Z``.
    """
    if isinstance(j, E.ReadReg):
        return j.value.is_var() and counts.get(j.value, 0) <= 1
    if isinstance(j, (E.DeclareConst, E.DefineConst)):
        return counts.get(j.var, 0) == 0
    if isinstance(j, (E.Assert, E.Assume)):
        return j.expr is TRUE
    return False


def _drop_dead(trace: Trace, counts: dict[Term, int]) -> Trace:
    """One sweep dropping dead events, keeping ``counts`` exact.

    The sweep runs backwards (sub-cases first, then events in reverse), so
    a use is seen before the definition it reads and a chain of dead
    definitions goes in one sweep.
    """
    cases = trace.cases
    if cases is not None:
        swept = tuple(_drop_dead(c, counts) for c in reversed(cases))[::-1]
        if any(n is not o for n, o in zip(swept, cases)):
            cases = swept
    kept: list[E.Event] = []
    for j in reversed(trace.events):
        if _is_dead(j, counts):
            for v in _event_uses(j):
                counts[v] -= 1
        else:
            kept.append(j)
    if len(kept) == len(trace.events) and cases is trace.cases:
        return trace
    kept.reverse()
    return Trace(tuple(kept), cases)


def _inline_constant_defs(trace: Trace) -> Trace:
    """Substitute definitions whose body is a literal."""
    mapping: dict[Term, Term] = {}
    events = []
    for j in trace.events:
        if mapping:
            j = substitute_event(j, mapping)
        if isinstance(j, E.DefineConst) and j.expr.is_value():
            mapping[j.var] = j.expr
            continue
        events.append(j)
    cases = trace.cases
    if cases is not None:
        inlined = tuple(_inline_constant_defs(c.substitute(mapping)) for c in cases)
        if any(n is not o for n, o in zip(inlined, cases)):
            cases = inlined
    if not mapping and cases is trace.cases:
        return trace
    return Trace(tuple(events), cases)
