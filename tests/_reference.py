"""Reference implementations for parity tests.

The pipeline has one configuration, and goal slicing is always on.
``whole_goals`` makes slicing see every goal as one component, so tests
can assert that slicing never changes a verdict, a trace or a
certificate.  The patch is module-level and lasts for the ``with`` block
only; it reaches in-process work, not worker processes.

The plain functions are the straightforward versions of code the pipeline
now runs faster: the brute-force inverse of Arm's ``DecodeBitMasks``, the
always-sorted state comparison and the fixed-point trace simplifier.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.itl import events as E
from repro.itl.trace import Trace, substitute_event
from repro.smt import solver as _solver
from repro.smt.terms import TRUE


@contextmanager
def whole_goals():
    """Make goal slicing see every goal as one component."""
    with mock.patch.object(_solver, "partition_goal", lambda goal: [list(goal)]):
        yield


def brute_force_bitmask_immediate(value: int, datasize: int) -> tuple[int, int, int]:
    """Invert DecodeBitMasks by trying every ``(N, immr, imms)`` in turn;
    raises ValueError when no encoding produces ``value``."""
    from repro.arch.arm.model import decode_bit_masks

    for esize_log in range(1, 7):
        esize = 1 << esize_log
        if esize > datasize:
            break
        for s in range(esize - 1):
            for r in range(esize):
                immn = 1 if esize == 64 else 0
                imms = ((~(esize * 2 - 1) & 0x3F) | s) & 0x3F
                if esize == 64:
                    imms = s
                try:
                    if decode_bit_masks(immn, imms, r, datasize) == value:
                        return immn, r, imms
                except ValueError:
                    continue
    raise ValueError(f"0x{value:x} is not a logical immediate")


def sorted_diff(a, b, labels_a=None, labels_b=None,
                a_name: str = "interp", b_name: str = "itl") -> list[str]:
    """``diff_states`` without its equality fast path: always walk the
    sorted union of registers, then of memory addresses, then labels."""
    out: list[str] = []
    for reg in sorted(set(a.regs) | set(b.regs), key=str):
        va, vb = a.read_reg(reg), b.read_reg(reg)
        if va != vb:
            out.append(
                f"register {reg} diverges: {a_name}={va!r} vs {b_name}={vb!r}"
            )
    for addr in sorted(set(a.mem) | set(b.mem)):
        va, vb = a.mem.get(addr), b.mem.get(addr)
        if va != vb:
            out.append(
                f"memory 0x{addr:x} diverges: {a_name}={va!r} vs {b_name}={vb!r}"
            )
    if labels_a is not None and labels_b is not None and labels_a != labels_b:
        out.append(
            f"labels diverge: {a_name}={labels_a} vs {b_name}={labels_b}"
        )
    return out


def fixed_point_simplify_trace(trace):
    """The trace simplifier as rounds of whole-tree passes run until a round
    leaves the trace structurally equal: inline literal definitions, drop
    dead register reads, drop dead definitions to a fixed point, drop
    ``Assert(true)``/``Assume(true)``."""
    while True:
        out = _inline_constant_defs(trace)
        out = _drop_dead_reg_reads(out)
        out = _drop_dead_defs(out)
        out = _drop_trivial_asserts(out)
        if out == trace:
            return out
        trace = out


def _event_uses(j):
    terms = []
    if isinstance(j, (E.ReadReg, E.WriteReg, E.AssumeReg)):
        terms = [j.value]
    elif isinstance(j, E.ReadMem):
        terms = [j.data, j.addr]
    elif isinstance(j, E.WriteMem):
        terms = [j.addr, j.data]
    elif isinstance(j, E.DefineConst):
        terms = [j.expr]
    elif isinstance(j, (E.Assert, E.Assume)):
        terms = [j.expr]
    used = set()
    for t in terms:
        used |= t.free_vars()
    return used


def _used_vars(trace):
    used = set()
    for j in trace.iter_events():
        used |= _event_uses(j)
    return used


def _drop_dead_defs(trace):
    while True:
        trace2 = _drop_defs_once(trace, _used_vars(trace))
        if trace2 is trace:
            return trace
        trace = trace2


def _drop_defs_once(trace, used):
    events = []
    changed = False
    for j in trace.events:
        if isinstance(j, (E.DeclareConst, E.DefineConst)) and j.var not in used:
            changed = True
            continue
        events.append(j)
    cases = None
    if trace.cases is not None:
        new_cases = tuple(_drop_defs_once(c, used) for c in trace.cases)
        if any(n is not o for n, o in zip(new_cases, trace.cases)):
            changed = True
        cases = new_cases
    if not changed:
        return trace
    return Trace(tuple(events), cases)


def _drop_dead_reg_reads(trace):
    counts = {}
    for j in trace.iter_events():
        for v in _event_uses(j):
            counts[v] = counts.get(v, 0) + 1
    return _drop_reads_once(trace, counts)


def _drop_reads_once(trace, counts):
    events = tuple(
        j
        for j in trace.events
        if not (
            isinstance(j, E.ReadReg)
            and j.value.is_var()
            and counts.get(j.value, 0) <= 1
        )
    )
    cases = (
        None
        if trace.cases is None
        else tuple(_drop_reads_once(c, counts) for c in trace.cases)
    )
    return Trace(events, cases)


def _inline_constant_defs(trace):
    mapping = {}
    events = []
    for j in trace.events:
        if mapping:
            j = substitute_event(j, mapping)
        if isinstance(j, E.DefineConst) and j.expr.is_value():
            mapping[j.var] = j.expr
            continue
        events.append(j)
    cases = None
    if trace.cases is not None:
        cases = tuple(
            _inline_constant_defs(c.substitute(mapping)) for c in trace.cases
        )
    return Trace(tuple(events), cases)


def _drop_trivial_asserts(trace):
    events = tuple(
        j
        for j in trace.events
        if not (isinstance(j, (E.Assert, E.Assume)) and j.expr is TRUE)
    )
    cases = (
        None
        if trace.cases is None
        else tuple(_drop_trivial_asserts(c) for c in trace.cases)
    )
    return Trace(events, cases)
