"""The verify path leaves no reference cycles behind.

``builder.substitute`` runs tens of thousands of times per verify pass,
and the trace cache walks every stored trace with ``_undeclared_vars``.
Each call must free what it made when it returns: a cycle (a recursive
closure, say) keeps the call's memo alive until the cyclic collector
runs, and those collections were about 7% of a pass.  With the collector
off, the calls below must leave nothing for ``gc.collect()`` to find.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from repro.arch.arm import ArmModel, encode as A
from repro.cache.store import _undeclared_vars
from repro.isla import Assumptions, trace_for_opcode
from repro.smt import builder as B


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_substitute_leaves_no_cycles():
    x, y = B.bv_var("x", 32), B.bv_var("y", 32)
    term = B.bvadd(B.bvmul(x, y), B.bvand(x, B.bvor(y, B.bv(3, 32))))
    with collector_off():
        for i in range(1000):
            B.substitute(term, {x: B.bv(i, 32)})
        assert gc.collect() == 0


def test_undeclared_vars_leaves_no_cycles():
    # A conditional branch: its trace forks into cases.
    trace = trace_for_opcode(ArmModel(), A.b_cond("eq", -16), Assumptions()).trace
    assert trace.cases
    with collector_off():
        for _ in range(100):
            _undeclared_vars(trace)
        assert gc.collect() == 0
