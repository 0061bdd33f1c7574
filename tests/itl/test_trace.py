"""Tests for ITL trace structure, substitution, and printing."""

import pytest

from repro.itl import (
    Assert,
    Assume,
    AssumeReg,
    DeclareConst,
    DefineConst,
    ReadMem,
    ReadReg,
    Reg,
    Trace,
    WriteMem,
    WriteReg,
    event_to_sexpr,
    trace_to_sexpr,
)
from repro.smt import builder as B
from repro.smt.sorts import bv_sort


def v(name, w=64):
    return B.bv_var(name, w)


class TestReg:
    def test_parse_plain(self):
        r = Reg.parse("R0")
        assert r.base == "R0" and r.field is None

    def test_parse_field(self):
        r = Reg.parse("PSTATE.EL")
        assert r.base == "PSTATE" and r.field == "EL"

    def test_str_roundtrip(self):
        assert str(Reg.parse("PSTATE.Z")) == "PSTATE.Z"
        assert str(Reg.parse("SP_EL2")) == "SP_EL2"

    def test_hashable(self):
        assert Reg("R0") == Reg("R0")
        assert len({Reg("R0"), Reg("R0"), Reg("R1")}) == 2

    def test_cached_hash_is_the_dataclass_hash(self):
        # Set iteration orders and dict layouts keyed by registers do not
        # move: the hash is the one the dataclass computed.
        for base, field in [("R0", None), ("PSTATE", "EL"), ("SP_EL2", None)]:
            assert hash(Reg(base, field)) == hash((base, field))

    def test_equality_and_repr_ignore_the_cached_hash(self):
        assert Reg("PSTATE", "EL") == Reg("PSTATE", "EL")
        assert Reg("PSTATE", "EL") != Reg("PSTATE", "SP")
        assert Reg("R0") != ("R0", None)
        assert repr(Reg("PSTATE", "EL")) == "Reg(base='PSTATE', field='EL')"
        assert repr(Reg("R0")) == "Reg(base='R0', field=None)"

    def test_copies_recompute_the_hash(self):
        import copy
        import pickle

        reg = Reg("PSTATE", "EL")
        for clone in (pickle.loads(pickle.dumps(reg)), copy.deepcopy(reg)):
            assert clone == reg and hash(clone) == hash(("PSTATE", "EL"))
        assert pickle.dumps(reg) == pickle.dumps(Reg("PSTATE", "EL"))


class TestSharedRegisterNames:
    """The models' register constructors and ``Reg.parse`` hand out shared
    instances that equal, hash and print as freshly built names do."""

    def test_model_registers_are_shared(self):
        from repro.arch.arm import regs as arm
        from repro.arch.ppc import regs as ppc
        from repro.arch.riscv.model import xreg

        pairs = [
            (arm.gpr, 3, Reg("R3")),
            (arm.pstate, "EL", Reg("PSTATE", "EL")),
            (ppc.gpr, 3, Reg("r3")),
            (xreg, 3, Reg("x3")),
        ]
        for make, arg, fresh in pairs:
            assert make(arg) is make(arg)
            assert make(arg) == fresh and hash(make(arg)) == hash(fresh)
            assert repr(make(arg)) == repr(fresh)
        assert repr(arm.gpr(3)) == "Reg(base='R3', field=None)"

    def test_out_of_range_registers_are_still_refused(self):
        from repro.arch.arm import regs as arm
        from repro.arch.ppc import regs as ppc
        from repro.arch.riscv.model import xreg

        for make, arg in [
            (arm.gpr, 31), (arm.gpr, -1), (arm.pstate, "Q"),
            (ppc.gpr, 32), (xreg, 0), (xreg, 32),
        ]:
            with pytest.raises(ValueError):
                make(arg)

    def test_parse_shares_its_instances(self):
        assert Reg.parse("PSTATE.EL") is Reg.parse("PSTATE.EL")
        assert Reg.parse("PSTATE.EL") == Reg("PSTATE", "EL")

    def test_the_parse_memo_is_bounded(self, monkeypatch):
        from repro.itl import events

        monkeypatch.setattr(events, "_PARSED", {})
        monkeypatch.setattr(events, "PARSE_MEMO_MAX", 8)
        regs = [Reg.parse(f"HOSTILE{i}") for i in range(100)]
        assert len(events._PARSED) == 8
        assert Reg.parse("HOSTILE99") == regs[99]
        assert Reg.parse("HOSTILE99") is not regs[99]


class TestTraceStructure:
    def test_linear_trace(self):
        t = Trace.lin(ReadReg(Reg("R0"), v("a")))
        assert t.num_events() == 1
        assert t.num_paths() == 1
        assert not t.is_empty

    def test_empty_trace(self):
        assert Trace().is_empty

    def test_cases_requires_subtraces(self):
        with pytest.raises(ValueError):
            Trace((), ())

    def test_num_events_counts_tree(self):
        t = Trace.lin(ReadReg(Reg("R0"), v("a"))).then_cases(
            Trace.lin(Assert(B.true()), WriteReg(Reg("R1"), v("a"))),
            Trace.lin(Assert(B.false())),
        )
        assert t.num_events() == 4
        assert t.num_paths() == 2

    def test_linear_paths_enumeration(self):
        t = Trace.lin(DefineConst(v("x"), B.bv(1, 64))).then_cases(
            Trace.lin(Assert(B.true())), Trace.lin(Assume(B.true()))
        )
        paths = list(t.linear_paths())
        assert len(paths) == 2
        assert all(len(p) == 2 for p in paths)

    def test_concat_distributes_over_cases(self):
        t = Trace.branch(Trace.lin(Assert(B.true())), Trace.lin(Assert(B.false())))
        t2 = t.concat(Trace.lin(WriteReg(Reg("R0"), B.bv(0, 64))))
        assert t2.num_paths() == 2
        for path in t2.linear_paths():
            assert isinstance(path[-1], WriteReg)

    def test_then_cases_rejects_double_cases(self):
        t = Trace.branch(Trace.lin())
        with pytest.raises(ValueError):
            t.then_cases(Trace.lin())

    def test_declared_vars(self):
        x = v("x")
        t = Trace.lin(DeclareConst(x, bv_sort(64)), DefineConst(v("y"), x))
        assert t.declared_vars() == {x, v("y")}


class TestSubstitution:
    def test_substitute_into_events(self):
        x = v("x")
        t = Trace.lin(
            WriteReg(Reg("R0"), B.bvadd(x, B.bv(1, 64))),
            WriteMem(x, B.bv(0xFF, 8), 1),
        )
        t2 = t.substitute({x: B.bv(9, 64)})
        assert t2.events[0].value == B.bv(10, 64)
        assert t2.events[1].addr == B.bv(9, 64)

    def test_substitute_into_cases(self):
        x = v("x")
        t = Trace.branch(Trace.lin(Assert(B.eq(x, B.bv(1, 64)))))
        t2 = t.substitute({x: B.bv(1, 64)})
        assert t2.cases[0].events[0].expr is B.true()

    def test_empty_substitution_is_identity(self):
        t = Trace.lin(Assert(B.true()))
        assert t.substitute({}) is t


class TestPrinter:
    def test_read_reg_plain(self):
        s = event_to_sexpr(ReadReg(Reg("SP_EL2"), v("v38")))
        assert s == "(read-reg |SP_EL2| nil v38)"

    def test_read_reg_field(self):
        s = event_to_sexpr(ReadReg(Reg("PSTATE", "EL"), B.bv(2, 2)))
        assert s == "(read-reg |PSTATE| ((_ field |EL|)) #b10)"

    def test_write_reg(self):
        s = event_to_sexpr(WriteReg(Reg("R0"), B.bv(0x40, 64)))
        assert s == "(write-reg |R0| nil #x0000000000000040)"

    def test_assume_reg(self):
        s = event_to_sexpr(AssumeReg(Reg("PSTATE", "SP"), B.bv(1, 1)))
        assert s == "(assume-reg |PSTATE| ((_ field |SP|)) #b1)"

    def test_declare_const(self):
        s = event_to_sexpr(DeclareConst(v("v38"), bv_sort(64)))
        assert s == "(declare-const v38 (_ BitVec 64))"

    def test_define_const_arith(self):
        s = event_to_sexpr(DefineConst(v("v61"), B.bvadd(v("v38"), B.bv(0x40, 64))))
        assert s == "(define-const v61 (bvadd v38 #x0000000000000040))"

    def test_read_mem(self):
        s = event_to_sexpr(ReadMem(B.bv_var("d", 8), v("a"), 1))
        assert s == "(read-mem d a 1)"

    def test_full_trace_format(self):
        t = Trace.lin(ReadReg(Reg("R1"), v("x"))).then_cases(
            Trace.lin(Assert(B.eq(v("x"), B.bv(0, 64))))
        )
        text = trace_to_sexpr(t)
        assert text.startswith("(trace")
        assert "(cases" in text
        assert text.count("(") == text.count(")")
