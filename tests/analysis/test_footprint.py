"""Footprint inference: regions and read/write sets."""

import pytest

from repro.analysis import (
    Footprint,
    MemRegion,
    block_footprints,
    footprint_of_trace,
)
from repro.arch.arm import ArmModel
from repro.isla import Assumptions, trace_for_opcode
from repro.itl import (
    DeclareConst,
    DefineConst,
    ReadMem,
    ReadReg,
    Reg,
    Trace,
    WriteMem,
    WriteReg,
)
from repro.smt import builder as B
from repro.smt.sorts import bv_sort

X0 = Reg("X0")
X1 = Reg("X1")
X2 = Reg("X2")


def v(name, w=64):
    return B.bv_var(name, w)


class TestMemRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            MemRegion(None, 8, 8)

    def test_union_coalesces_adjacent(self):
        a = Footprint(mem_writes=(MemRegion(X0, 0, 8),))
        b = Footprint(mem_writes=(MemRegion(X0, 8, 16),))
        assert a.union(b).mem_writes == (MemRegion(X0, 0, 16),)


class TestInference:
    def test_load_store_with_offset(self):
        """A memcpy-shaped body: load [X1], store [X0 + 8]."""
        src, dst, data = v("src"), v("dst"), v("data")
        t = Trace.lin(
            DeclareConst(src, bv_sort(64)),
            ReadReg(X1, src),
            DeclareConst(data, bv_sort(64)),
            ReadMem(data, src, 8),
            DeclareConst(dst, bv_sort(64)),
            ReadReg(X0, dst),
            DefineConst(v("addr"), B.bvadd(dst, B.bv(8, 64))),
            WriteMem(v("addr"), data, 8),
            WriteReg(X2, data),
        )
        fp = footprint_of_trace(t)
        assert fp.reg_reads == {X0, X1}
        assert fp.reg_writes == {X2}
        assert fp.mem_reads == (MemRegion(X1, 0, 8),)
        assert fp.mem_writes == (MemRegion(X0, 8, 16),)
        assert not fp.unknown_reads and not fp.unknown_writes

    def test_absolute_address(self):
        t = Trace.lin(ReadMem(B.bv(0xAB, 8), B.bv(0x9000_0000, 64), 1))
        fp = footprint_of_trace(t)
        assert fp.mem_reads == (MemRegion(None, 0x9000_0000, 0x9000_0001),)

    def test_negative_offset_is_signed(self):
        base = v("sp")
        t = Trace.lin(
            DeclareConst(base, bv_sort(64)),
            ReadReg(X0, base),
            DefineConst(v("a"), B.bvsub(base, B.bv(16, 64))),
            WriteMem(v("a"), B.bv(0, 64), 8),
        )
        fp = footprint_of_trace(t)
        assert fp.mem_writes == (MemRegion(X0, -16, -8),)

    def test_read_after_write_is_not_an_anchor(self):
        # After WriteReg X0 the register no longer holds its initial value.
        x = v("x")
        t = Trace.lin(
            WriteReg(X0, B.bv(0, 64)),
            DeclareConst(x, bv_sort(64)),
            ReadReg(X0, x),
            ReadMem(B.bv(0, 8), x, 1),
        )
        fp = footprint_of_trace(t)
        assert fp.mem_reads == ()
        assert fp.unknown_reads == 1

    def test_unknown_shape_counted(self):
        a, b = v("a"), v("b")
        t = Trace.lin(
            DeclareConst(a, bv_sort(64)),
            ReadReg(X0, a),
            DeclareConst(b, bv_sort(64)),
            ReadReg(X1, b),
            WriteMem(B.bvadd(a, b), B.bv(0, 8), 1),  # two symbolic bases
        )
        assert footprint_of_trace(t).unknown_writes == 1

    def test_branches_unioned(self):
        x = v("x")
        spine = (DeclareConst(x, bv_sort(64)), ReadReg(X0, x))
        taken = Trace.lin(WriteReg(X1, x))
        skipped = Trace.lin(WriteReg(X2, x))
        fp = footprint_of_trace(Trace(spine, cases=(taken, skipped)))
        assert fp.reg_writes == {X1, X2}

    def test_real_executor_trace(self):
        arm = ArmModel()
        assm = Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)
        res = trace_for_opcode(arm, 0x910103FF, assm)  # add sp, sp, #0x40
        fp = footprint_of_trace(res.trace)
        assert Reg("SP_EL2") in fp.reg_reads
        assert Reg("SP_EL2") in fp.reg_writes
        assert Reg("_PC") in fp.reg_writes

    def test_block_footprints_keyed_by_address(self):
        t = Trace.lin(WriteReg(X0, B.bv(0, 64)))
        fps = block_footprints({0x400004: t, 0x400000: t})
        assert list(fps) == [0x400000, 0x400004]
