"""Tests for parametric trace summaries (``repro.isla.parametric``).

The load-bearing property is *certificate parity*: a parametrically
instantiated trace must be term-for-term identical to what direct symbolic
execution of the same concrete opcode produces.  The suite checks that
property deterministically and under Hypothesis, plus the guard-failure
fallbacks, the disk family tier, the budget interaction, and the
structured-operand decode layer the engine is built on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.arm import ArmModel
from repro.arch.arm import asm as arm_asm
from repro.arch.arm import decode as arm_decode
from repro.arch.riscv import RiscvModel
from repro.arch.riscv import asm as riscv_asm
from repro.arch.riscv import decode as riscv_decode
from repro.isla import Assumptions, trace_for_opcode
from repro.isla.executor import PathBudgetExceeded
from repro import obs
from repro.isla.parametric import engine
from repro.itl import events as E
from repro.itl.printer import trace_to_sexpr
from repro.resilience.budget import Budget, BudgetSpec
from repro.smt import builder as B
from repro.smt.sorts import bv_sort

from .._reference import direct_isla

ARM = ArmModel()
RISCV = RiscvModel()


@pytest.fixture
def counts():
    """The test's run scope; ``counts()`` snapshots its family counters."""
    with obs.scope() as run:
        yield lambda: run.snapshot("parametric.")


def _direct(model, opcode, assumptions=None):
    """Run the direct symbolic path (no family dispatch)."""
    with direct_isla():
        return trace_for_opcode(model, opcode, assumptions or Assumptions())


def _assert_parity(model, opcode, assumptions=None):
    para = trace_for_opcode(model, opcode, assumptions or Assumptions())
    direct = _direct(model, opcode, assumptions)
    assert trace_to_sexpr(para.trace) == trace_to_sexpr(direct.trace)
    assert para.paths == direct.paths
    return para


# -- structured operand decode (the layer families are keyed on) -------------

ARM_ARM_LINES = [
    ("addsub_imm", "add x1, x2, #12"),
    ("addsub_reg", "add x1, x2, x3"),
    ("logical_reg", "orr x1, x2, x3"),
    ("logical_imm", "and x1, x2, #0xff0"),
    ("movewide", "movz x9, #42"),
    ("bitfield", "ubfm x1, x2, #3, #5"),
    ("csel", "csel x1, x2, x3, eq"),
    ("ccmp", "ccmp x1, x2, #3, ne"),
    ("ccmp", "ccmp x1, #5, #3, ne"),
    ("div", "sdiv x1, x2, x3"),
    ("rbit", "rbit x1, x2"),
    ("ldst_imm", "ldr x1, [x2, #8]"),
    ("ldst_reg", "ldr x1, [x2, x3]"),
    ("ldst_imm9", "ldur x1, [x2, #-8]"),
    ("ldst_pair", "ldp x1, x2, [x3]"),
    ("adr", "adr x1, #16"),
    ("madd", "madd x1, x2, x3, x4"),
    ("cbz", "cbz x1, #8"),
    ("tbz", "tbz x1, #3, #8"),
    ("bcond", "b.eq #-16"),
    ("b_bl", "b #16"),
    ("br_blr_ret", "ret"),
    ("hint", "nop"),
    ("sysreg", "mrs x1, esr_el2"),
    ("hvc", "hvc #1"),
]

RISCV_ARM_LINES = [
    ("lui", "lui t0, 0x123"),
    ("auipc", "auipc t0, 1"),
    ("jal", "jal t0, 8"),
    ("jalr", "jalr t0, 4(t1)"),
    ("branch", "beq t0, t1, 8"),
    ("load", "lw t0, 4(t1)"),
    ("store", "sw t0, 4(t1)"),
    ("op_imm", "addi t0, t1, 5"),
    ("op_imm", "srli t0, t1, 3"),
    ("op_imm32", "addiw t0, t1, 5"),
    ("op", "add t0, t1, t2"),
    ("op32", "addw t0, t1, t2"),
    ("fence", "fence"),
    ("system", "ecall"),
    ("system", "csrrw t0, mscratch, t1"),
]

_DECODE_CASES = [
    pytest.param(arm_decode, arm_asm, arm, line, id=f"arm-{line}")
    for arm, line in ARM_ARM_LINES
] + [
    pytest.param(riscv_decode, riscv_asm, arm, line, id=f"riscv-{line}")
    for arm, line in RISCV_ARM_LINES
]


class TestDecodeFields:
    @pytest.mark.parametrize("decode,asm,arm,line", _DECODE_CASES)
    def test_fields_tile_and_reconstruct(self, decode, asm, arm, line):
        op = asm.assemble_line(line)
        decoded = decode.decode_fields(op)
        assert decoded is not None
        got_arm, fields = decoded
        assert got_arm == arm
        # MSB-first, contiguous, tiling the full 32-bit word.
        assert fields[0][1] == 31 and fields[-1][2] == 0
        for (_, _, lo, _), (_, hi, _, _) in zip(fields, fields[1:]):
            assert lo == hi + 1
        rebuilt = 0
        for name, hi, lo, kind in fields:
            assert kind in ("reg", "imm", "struct"), name
            rebuilt |= ((op >> lo) & ((1 << (hi - lo + 1)) - 1)) << lo
        assert rebuilt == op

    @pytest.mark.parametrize("decode,asm,arm,line", _DECODE_CASES)
    def test_operands_roundtrip_through_asm(self, decode, asm, arm, line):
        op = asm.assemble_line(line)
        reassembled = asm.assemble_line(decode.disassemble(op))
        assert reassembled == op
        operands = decode.decode_operands(op)
        assert operands is not None
        assert decode.decode_operands(reassembled) == operands

    def test_every_arm_arm_covered(self):
        assert {arm for arm, _ in ARM_ARM_LINES} == (
            set(arm_decode._FIELD_TABLES) | {"ccmp"}
        )

    def test_every_riscv_arm_covered(self):
        assert {arm for arm, _ in RISCV_ARM_LINES} == set(
            riscv_decode._MAJOR_ARMS.values()
        )

    def test_out_of_subset_returns_none(self):
        assert arm_decode.decode_fields(0xFFFFFFFF) is None
        assert arm_decode.decode_operands(0xFFFFFFFF) is None
        assert riscv_decode.decode_fields(0) is None


# -- deterministic parity + stats --------------------------------------------


class TestFamilyDispatch:
    def test_arm_family_build_then_hit(self, counts):
        eng = engine()
        eng.reset()
        r1 = _assert_parity(ARM, arm_asm.assemble_line("add x1, x2, #12"))
        assert r1.parametric and r1.model_steps == 0
        snap = counts()
        assert snap.get("family_builds") == 1
        assert "family_hits" not in snap
        r2 = _assert_parity(ARM, arm_asm.assemble_line("add x5, x6, #700"))
        assert r2.parametric
        snap = counts()
        assert snap.get("family_builds") == 1  # no rebuild
        assert snap.get("family_hits") == 1
        assert snap.get("family_hits_armv8_a_addsub_imm") == 1

    def test_riscv_family_build_then_hit(self, counts):
        eng = engine()
        eng.reset()
        r1 = _assert_parity(RISCV, riscv_asm.assemble_line("addi t0, t1, 12"))
        assert r1.parametric
        r2 = _assert_parity(RISCV, riscv_asm.assemble_line("addi t3, t4, -700"))
        assert r2.parametric
        snap = counts()
        assert snap.get("family_builds") == 1
        assert snap.get("family_hits") == 1

    def test_register_aliasing_splits_families(self, counts):
        # ``add x1, x1, x2`` (rd == rn) and ``add x1, x2, x3`` have different
        # register equality classes: the executor reads each register once,
        # so the aliased form has a different event structure.
        eng = engine()
        eng.reset()
        _assert_parity(ARM, arm_asm.assemble_line("add x1, x2, x3"))
        _assert_parity(ARM, arm_asm.assemble_line("add x1, x1, x2"))
        snap = counts()
        assert snap.get("family_builds") == 2
        assert "family_hits" not in snap

    def test_special_index_demoted_to_struct(self, counts):
        # rd = sp is structural on Arm (SP-banked write): it must pin the
        # family, not be renamed across it.
        eng = engine()
        eng.reset()
        assm = (
            Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)
        )
        _assert_parity(ARM, arm_asm.assemble_line("add x1, x2, #12"), assm)
        _assert_parity(ARM, arm_asm.assemble_line("sub sp, sp, #16"), assm)
        assert counts().get("family_builds") == 2


# -- guard failures fall back to the direct path -----------------------------


class TestGuardFallback:
    def test_arm_fixed_reg_collision_falls_back(self, counts):
        # ``blr`` writes the link register structurally; ``blr x30`` must not
        # be served by renaming the family's operand placeholder onto R30.
        eng = engine()
        eng.reset()
        r1 = trace_for_opcode(ARM, arm_asm.assemble_line("blr x9"))
        assert r1.parametric
        blr30 = arm_asm.assemble_line("blr x30")
        r2 = trace_for_opcode(ARM, blr30)
        assert not r2.parametric
        snap = counts()
        assert snap.get("guard_failures") == 1
        assert "family_hits" not in snap
        direct = _direct(ARM, blr30)
        assert trace_to_sexpr(r2.trace) == trace_to_sexpr(direct.trace)

    def test_riscv_assumed_operand_falls_back(self, counts):
        # The assumptions pin x5 (t0): direct execution of an opcode reading
        # t0 emits assumption events the family trace does not contain.
        eng = engine()
        eng.reset()
        pins = Assumptions().pin("x5", 7, 64)
        r1 = trace_for_opcode(
            RISCV, riscv_asm.assemble_line("add t3, t4, t5"), pins
        )
        assert r1.parametric
        op = riscv_asm.assemble_line("add t1, t0, t2")
        r2 = trace_for_opcode(RISCV, op, pins)
        assert not r2.parametric
        assert counts().get("guard_failures") == 1
        direct = _direct(RISCV, op, pins)
        assert trace_to_sexpr(r2.trace) == trace_to_sexpr(direct.trace)

    def test_pinned_placeholder_marks_family_unsupported(self, counts):
        # Assumptions pinning a *canonical placeholder* register make the
        # family build itself unsound; the refusal is remembered per key.
        eng = engine()
        eng.reset()
        pins = Assumptions().pin("x1", 3, 64)
        op = riscv_asm.assemble_line("add t1, t2, t3")
        res = trace_for_opcode(RISCV, op, pins)
        assert not res.parametric
        snap = counts()
        assert snap.get("family_unsupported") == 1
        trace_for_opcode(RISCV, op, pins)
        assert counts().get("family_unsupported") == 1  # no retry
        direct = _direct(RISCV, op, pins)
        assert trace_to_sexpr(res.trace) == trace_to_sexpr(direct.trace)

    def test_path_budget_smaller_than_family_falls_back(self, counts):
        # A 2-path family must not be served to a caller whose allowance is
        # 1: the direct path's PathBudgetExceeded is part of the contract.
        eng = engine()
        eng.reset()
        res = trace_for_opcode(RISCV, riscv_asm.assemble_line("beqz a2, 28"))
        assert res.paths == 2
        budget = Budget(BudgetSpec(path_allowance=1))
        with pytest.raises(PathBudgetExceeded):
            trace_for_opcode(
                RISCV,
                riscv_asm.assemble_line("beqz a3, 28"),
                budget=budget,
            )
        assert counts().get("family_budget_fallbacks") == 1


# -- the disk family tier ----------------------------------------------------


class TestFamilyDiskTier:
    def test_family_survives_engine_reset_via_disk(self, tmp_path):
        from repro.cache.store import DiskCache

        cache = DiskCache(tmp_path / "cache")
        eng = engine()
        eng.reset()
        r1 = trace_for_opcode(
            ARM, arm_asm.assemble_line("add x1, x2, #12"), cache=cache
        )
        assert r1.parametric
        # A fresh process (modelled by reset) re-derives the family from
        # disk: no rebuild, and the instantiation counts as a hit.
        eng.reset()
        op2 = arm_asm.assemble_line("add x5, x6, #700")
        with obs.scope() as run:
            r2 = trace_for_opcode(ARM, op2, Assumptions(), cache=cache)
        assert r2.parametric
        snap = run.snapshot("parametric.")
        assert snap.get("family_hits") == 1
        assert "family_builds" not in snap
        direct = _direct(ARM, op2)
        assert trace_to_sexpr(r2.trace) == trace_to_sexpr(direct.trace)

    def test_store_load_roundtrip_preserves_meta(self, tmp_path):
        from repro.cache.store import DiskCache

        cache = DiskCache(tmp_path / "cache")
        eng = engine()
        eng.reset()
        trace_for_opcode(
            RISCV, riscv_asm.assemble_line("addi t0, t1, 12"), cache=cache
        )
        (key, entry) = next(iter(eng._families.items()))
        loaded = cache.load_family(key)
        assert loaded is not None
        raw, meta = loaded
        assert trace_to_sexpr(raw) == trace_to_sexpr(entry.raw)
        assert meta["arm"] == entry.arm
        assert tuple(meta["placeholder_bases"]) == entry.placeholder_bases
        assert set(meta["fixed_regs"]) == set(entry.fixed_regs)
        assert meta["operand_dependent"] == entry.operand_dependent

    def test_missing_family_is_none(self, tmp_path):
        from repro.cache.store import DiskCache

        cache = DiskCache(tmp_path / "cache")
        assert cache.load_family("0" * 64) is None


# -- substitution well-formedness (WF010-WF012) ------------------------------


class TestSubstitutionWellformedness:
    def _decl(self, name, width):
        var = B.var(name, bv_sort(width))
        return var, E.DeclareConst(var, bv_sort(width))

    def test_wf010_sort_mismatch(self):
        from repro.analysis.wellformed import check_substitution
        from repro.itl.trace import Trace

        v0, d0 = self._decl("v0", 12)
        tr = Trace((d0,))
        findings = check_substitution(tr, tr, {v0: B.bv(0, 16)})
        assert any(f.code == "WF010" for f in findings)

    def test_wf010_non_variable_key(self):
        from repro.analysis.wellformed import check_substitution
        from repro.itl.trace import Trace

        tr = Trace(())
        findings = check_substitution(tr, tr, {B.bv(1, 12): B.bv(0, 12)})
        assert any(f.code == "WF010" for f in findings)

    def test_wf011_capture(self):
        from repro.analysis.wellformed import check_substitution
        from repro.itl.trace import Trace

        v0, d0 = self._decl("v0", 64)
        original = Trace((d0,))
        operand = B.var("?f_imm", bv_sort(64))
        findings = check_substitution(
            original, original, {operand: B.var("v0", bv_sort(64))}
        )
        assert any(f.code == "WF011" for f in findings)

    def test_wf012_rename_width_and_unknown(self):
        from repro.analysis.wellformed import check_substitution
        from repro.itl.trace import Trace
        from repro.sail.registers import RegisterFile

        regfile = RegisterFile()
        regfile.declare("A", 64)
        regfile.declare("B", 32)
        tr = Trace(())
        ok = check_substitution(tr, tr, {}, {"A": "A"}, regfile=regfile)
        assert not ok
        widths = check_substitution(tr, tr, {}, {"A": "B"}, regfile=regfile)
        assert any(f.code == "WF012" for f in widths)
        unknown = check_substitution(tr, tr, {}, {"A": "NOPE"}, regfile=regfile)
        assert any(f.code == "WF012" for f in unknown)

    def test_instantiation_passes_the_judgement(self):
        # The engine asserts substitution well-formedness on every serve
        # (under debug checks); a clean run of a build+hit pair is the
        # positive case.
        engine().reset()
        _assert_parity(ARM, arm_asm.assemble_line("orr x1, x2, x3"))
        _assert_parity(ARM, arm_asm.assemble_line("orr x4, x5, x6"))


# -- Hypothesis: instantiation == direct execution ---------------------------

_XR = st.integers(min_value=0, max_value=30)
_RVR = st.integers(min_value=0, max_value=31).map(
    lambda i: riscv_decode.ABI[i]
)

ARM_WORDS = st.one_of(
    st.tuples(_XR, _XR, st.integers(0, 4095)).map(
        lambda t: f"add x{t[0]}, x{t[1]}, #{t[2]}"
    ),
    st.tuples(_XR, _XR, st.integers(0, 4095)).map(
        lambda t: f"subs x{t[0]}, x{t[1]}, #{t[2]}"
    ),
    st.tuples(_XR, st.integers(0, 65535)).map(
        lambda t: f"movz x{t[0]}, #{t[1]}"
    ),
    st.tuples(_XR, _XR, _XR).map(
        lambda t: f"orr x{t[0]}, x{t[1]}, x{t[2]}"
    ),
).map(arm_asm.assemble_line)

RISCV_WORDS = st.one_of(
    st.tuples(_RVR, _RVR, st.integers(-2048, 2047)).map(
        lambda t: f"addi {t[0]}, {t[1]}, {t[2]}"
    ),
    st.tuples(_RVR, _RVR, st.integers(-2048, 2047)).map(
        lambda t: f"xori {t[0]}, {t[1]}, {t[2]}"
    ),
    st.tuples(_RVR, _RVR, _RVR).map(
        lambda t: f"add {t[0]}, {t[1]}, {t[2]}"
    ),
    st.tuples(_RVR, st.integers(0, 0xFFFFF)).map(
        lambda t: f"lui {t[0]}, {t[1]}"
    ),
).map(riscv_asm.assemble_line)


class TestParityProperty:
    """Families accumulate across examples on purpose: most draws are
    instantiated from an existing family, which is the production shape."""

    @settings(max_examples=20, deadline=None)
    @given(word=ARM_WORDS)
    def test_arm_instantiation_matches_direct(self, word):
        _assert_parity(ARM, word)

    @settings(max_examples=20, deadline=None)
    @given(word=RISCV_WORDS)
    def test_riscv_instantiation_matches_direct(self, word):
        _assert_parity(RISCV, word)


# -- stats plumbing ----------------------------------------------------------


class TestStatsPlumbing:
    def test_frontend_result_carries_deltas(self, counts):
        # A map's family counts land in the caller's run scope.
        from repro.arch.arm import encode as A
        from repro.frontend import ProgramImage, generate_instruction_map

        engine().reset()
        image = ProgramImage().place(
            0x1000,
            [
                arm_asm.assemble_line("add x1, x2, #12"),
                arm_asm.assemble_line("add x5, x6, #700"),
                A.nop(),
            ],
        )
        generate_instruction_map(ARM, image, Assumptions())
        snap = counts()
        assert snap.get("family_builds") == 2  # addsub + hint
        assert snap.get("family_hits") == 1
        assert snap.get("family_instantiations") == 3
