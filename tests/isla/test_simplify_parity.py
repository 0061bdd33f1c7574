"""The trace simplifier computes what the fixed-point rounds computed.

``simplify_trace`` counts variable uses once and drops dead events in
sweeps; ``tests/_reference.py`` keeps the rounds of whole-tree passes it
replaced.  Every raw trace the executor emits during a cosim soak (three
arches, two seeds) and while building every ``verify --all`` case must
simplify to an equal trace under both, and to the very same object when
there is nothing to simplify.
"""

from __future__ import annotations

import pytest

from repro import casestudies
from repro.cosim import COSIM_ARCHS, CoSimDriver
from repro.cosim import driver as cosim_driver
from repro.isla import footprint
from repro.itl import events as E
from repro.itl.trace import Trace
from repro.smt import builder as B
from repro.smt.sorts import bv_sort

from .._reference import fixed_point_simplify_trace


@pytest.fixture(scope="module")
def raw_traces():
    """Every raw trace handed to ``simplify_trace`` by the executor."""
    raws: list[Trace] = []
    simplify = footprint.simplify_trace

    def recording(trace):
        raws.append(trace)
        return simplify(trace)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(footprint, "simplify_trace", recording)
        patch.setattr(cosim_driver, "_TRACE_CACHE", {})
        for seed in (7, 8):
            for arch in COSIM_ARCHS.values():
                report = CoSimDriver(arch).run_batch(seed=seed, count=40)
                assert not report.divergences
        for name in casestudies.__all__:
            getattr(casestudies, name).build()
    return raws


def _assert_parity(raw: Trace) -> None:
    expected = fixed_point_simplify_trace(raw)
    out = footprint.simplify_trace(raw)
    assert out == expected
    if expected == raw:
        assert out is raw


def test_every_emitted_trace(raw_traces):
    assert len(raw_traces) > 500
    changed = 0
    for raw in raw_traces:
        _assert_parity(raw)
        changed += footprint.simplify_trace(raw) is not raw
    # Both kinds occur: the parity covers dropping, not only the identity.
    assert 0 < changed < len(raw_traces)


def v(name: str, width: int = 64):
    return B.bv_var(name, width)


def declare(var):
    return E.DeclareConst(var, bv_sort(var.width))


R0, R1 = E.Reg("R0"), E.Reg("R1")


@pytest.mark.parametrize(
    "raw",
    [
        # A chain of dead definitions behind a dead read.
        Trace.lin(
            declare(v("a")), E.ReadReg(R0, v("a")),
            E.DefineConst(v("b"), B.bvadd(v("a"), v("a"))),
            E.DefineConst(v("c"), B.bvmul(v("b"), v("b"))),
            E.WriteReg(R1, v("a")),
        ),
        # The read is live only through a definition that dies: two rounds.
        Trace.lin(
            declare(v("a")), E.ReadReg(R0, v("a")),
            E.DefineConst(v("b"), B.bvnot(v("a"))),
            E.Assert(B.true()),
        ),
        # Sibling branches reuse a name: a use in one keeps the other's
        # definition (global counts, not per-path liveness).
        Trace.lin(declare(v("a")), E.ReadReg(R0, v("a"))).then_cases(
            Trace.lin(E.DefineConst(v("t"), B.bvnot(v("a"))), E.WriteReg(R1, v("t"))),
            Trace.lin(E.DefineConst(v("t"), B.bvneg(v("a")))),
        ),
        # Literal definitions are inlined into the cases, and the folded
        # assertion vanishes.
        Trace.lin(E.DefineConst(v("k"), B.bv(3, 64))).then_cases(
            Trace.lin(E.Assert(B.eq(v("k"), B.bv(3, 64))), E.WriteReg(R0, v("k"))),
            Trace.lin(E.Assume(B.bvult(v("k"), B.bv(2, 64)))),
        ),
        # Already clean.
        Trace.lin(declare(v("a")), E.ReadReg(R0, v("a")), E.WriteReg(R1, v("a"))),
    ],
    ids=["dead-chain", "second-round", "sibling-reuse", "inline-cases", "clean"],
)
def test_hand_built_traces(raw):
    _assert_parity(raw)
