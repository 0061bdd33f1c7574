"""Footprint inference: regions, read/write sets, interference grouping."""

import pytest

from repro.analysis import (
    Footprint,
    MemRegion,
    block_footprints,
    footprint_of_trace,
    interference_groups,
    may_interfere,
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
PC = Reg("_PC")


def v(name, w=64):
    return B.bv_var(name, w)


class TestMemRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            MemRegion(None, 8, 8)

    def test_same_anchor_overlap(self):
        a = MemRegion(X0, 0, 8)
        assert a.overlaps(MemRegion(X0, 4, 12))
        assert not a.overlaps(MemRegion(X0, 8, 16))

    def test_different_anchors_conservatively_alias(self):
        # Nothing relates X0's and X1's initial values statically.
        assert MemRegion(X0, 0, 8).overlaps(MemRegion(X1, 100, 108))
        assert MemRegion(X0, 0, 8).overlaps(MemRegion(None, 0x1000, 0x1008))

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


class TestInterference:
    def test_register_raw_conflict(self):
        a = Footprint(reg_writes=frozenset({X0}))
        b = Footprint(reg_reads=frozenset({X0}))
        assert may_interfere(a, b)
        assert may_interfere(b, a)

    def test_ignored_registers_do_not_conflict(self):
        a = Footprint(reg_writes=frozenset({PC}))
        b = Footprint(reg_reads=frozenset({PC}), reg_writes=frozenset({PC}))
        assert not may_interfere(a, b, ignore=frozenset({PC}))

    def test_disjoint_memory_same_anchor(self):
        a = Footprint(mem_writes=(MemRegion(X0, 0, 8),))
        b = Footprint(mem_reads=(MemRegion(X0, 8, 16),))
        assert not may_interfere(a, b)

    def test_unknown_memory_interferes_with_any_access(self):
        a = Footprint(unknown_writes=1)
        b = Footprint(mem_reads=(MemRegion(X0, 0, 8),))
        assert may_interfere(a, b)
        assert not may_interfere(a, Footprint(reg_reads=frozenset({X1})))

    def test_read_read_never_conflicts(self):
        a = Footprint(reg_reads=frozenset({X0}), mem_reads=(MemRegion(X0, 0, 8),))
        assert not may_interfere(a, a)

    def test_groups_partition_by_conflict(self):
        fps = [
            Footprint(reg_writes=frozenset({X0})),  # 0 conflicts with 1
            Footprint(reg_reads=frozenset({X0})),
            Footprint(reg_writes=frozenset({X2})),  # independent
        ]
        assert interference_groups(fps) == [[0, 1], [2]]

    def test_block_footprints_keyed_by_address(self):
        t = Trace.lin(WriteReg(X0, B.bv(0, 64)))
        fps = block_footprints({0x400004: t, 0x400000: t})
        assert list(fps) == [0x400000, 0x400004]
