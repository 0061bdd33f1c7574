"""Tests for the AArch64 model: encoder correctness, concrete-execution
semantics, and banked-register behaviour."""

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.arch.arm.model import (
    _DECODE_TABLE,
    _handler_for,
    bits_match,
    decode_bit_masks,
    integer_conditional_select,
)
from repro.arch.arm.regs import PC, gpr, pstate
from repro.itl.events import Reg
from repro.smt import builder as B


@pytest.fixture(scope="module")
def model():
    return ArmModel()


def run_one(model, opcode, regs=None, mem=None, pc=0x1000, pstate_over=None):
    """Execute one opcode concretely; returns the machine state."""
    overrides = {"PSTATE.EL": 2, "PSTATE.SP": 1}
    overrides.update(pstate_over or {})
    state = model.initial_state(overrides)
    state.write_reg(PC, pc)
    for name, val in (regs or {}).items():
        state.write_reg(Reg.parse(name), val)
    for addr, (val, n) in (mem or {}).items():
        state.write_mem(addr, val, n)
    state.load_bytes(pc, (opcode).to_bytes(4, "little"))
    model.step_concrete(state)
    return state


class TestBitsMatch:
    def test_concrete_match(self):
        assert bits_match(B.bv(0x91010000, 32), "xxx_100010_xxxxxxxxxxxxxxxxxxxxxxx") is B.true()

    def test_concrete_mismatch(self):
        assert bits_match(B.bv(0, 32), "1" + "x" * 31) is B.false()

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            bits_match(B.bv(0, 32), "xx")


def _walk_handler(word):
    """The ``bits_match`` walk the decoder did before its table was
    compiled: the first entry whose match term folds to true."""
    opcode = B.bv(word, 32)
    for pattern, handler in _DECODE_TABLE:
        if bits_match(opcode, pattern) is B.true():
            return handler
    return None


def _template_words():
    """Every ARM template instantiated: the cosim templates drawn 20 times
    each (lines the assembler rejects are skipped, as the generator does),
    the conformance templates over a grid of operands."""
    import random

    from repro.arch.arm.asm import AsmError, assemble_line
    from repro.arch.arm.templates import CONFORMANCE_TEMPLATES, cosim_templates
    from repro.cosim.generate import _Slot

    rng = random.Random(0)
    words = []
    for draw in cosim_templates(rng, _Slot(index=1, length=4)).values():
        for _ in range(20):
            try:
                words.append(assemble_line(draw()))
            except AsmError:
                continue
    for line in CONFORMANCE_TEMPLATES:
        for r, n, m, h in [(0, 1, 2, 1), (30, 29, 28, 15), (7, 0, 30, 3)]:
            words.append(assemble_line(line.format(r=r, n=n, m=m, h=h)))
    return words


class TestCompiledDecodeTable:
    """The compiled ``(mask, value, handler)`` table picks the handler the
    ``bits_match`` walk picked."""

    def test_template_words(self):
        words = _template_words()
        assert len(words) > 500
        for word in words:
            assert _handler_for(word) is _walk_handler(word), hex(word)

    def test_random_words(self):
        import random
        import re

        # An independent reading of the patterns for the bulk of the words:
        # a regex over the word's bits ("x" matches either bit).
        regexes = [
            (re.compile(p.replace("_", "").replace("x", ".")), h)
            for p, h in _DECODE_TABLE
        ]

        def by_regex(word):
            bits = format(word, "032b")
            return next((h for rx, h in regexes if rx.fullmatch(bits)), None)

        rng = random.Random(20221)
        words = [rng.getrandbits(32) for _ in range(100_000)]
        for word in words:
            assert _handler_for(word) is by_regex(word), hex(word)
        for word in words[:2_000]:
            assert _handler_for(word) is _walk_handler(word), hex(word)

    def test_every_template_word_has_a_handler(self):
        # The CSINV/CSNEG words (op, bit 30, set): the conditional-select
        # pattern fixes S (bit 29), not op.
        for word in (0xDA808788, 0xDA9E1530, 0xDA9DD5E0, 0xDA825117, 0xDA80D0AB):
            assert _handler_for(word) is integer_conditional_select, hex(word)
        assert [hex(w) for w in _template_words() if _handler_for(w) is None] == []

    def test_csneg_traces(self):
        from repro.isla import Assumptions, trace_for_opcode

        # csneg x8, x28, x0, hi
        result = trace_for_opcode(ArmModel(), 0xDA808788, Assumptions())
        assert any(
            str(getattr(event, "reg", "")) == "R8"
            for event in result.trace.iter_events()
        )

    def test_conditional_select_with_s_set_is_undecodable(self):
        # csel x0, x1, x2, eq with bit 29 (S) set: no A64 instruction.
        assert _handler_for(A.csel(0, 1, 2, "eq") | 1 << 29) is None

    @pytest.mark.parametrize(
        "word,expected",
        [
            (0xDA820020, ~20),  # csinv x0, x1, x2, eq (eq fails): NOT x2
            (0xDA820420, -20),  # csneg x0, x1, x2, eq (eq fails): -x2
        ],
    )
    def test_csinv_csneg_execute(self, model, word, expected):
        state = run_one(model, word, regs={"R1": 10, "R2": 20})
        assert state.read_reg(gpr(0)) == expected % (1 << 64)


class TestEncoderKnownOpcodes:
    """Cross-checked against binutils/the paper."""

    def test_add_sp_sp_64(self):
        # The paper's Fig. 3 opcode.
        assert A.add_imm(31, 31, 0x40) == 0x910103FF

    def test_nop(self):
        assert A.nop() == 0xD503201F

    def test_eret(self):
        assert A.eret() == 0xD69F03E0

    def test_ret(self):
        assert A.ret() == 0xD65F03C0

    def test_hvc_0(self):
        assert A.hvc(0) == 0xD4000002

    def test_mov_x0_42(self):
        assert A.mov_imm(0, 42) == 0xD2800540

    def test_b_dot(self):
        assert A.b(0) == 0x14000000

    def test_range_checks(self):
        with pytest.raises(ValueError):
            A.add_imm(32, 0, 0)
        with pytest.raises(ValueError):
            A.add_imm(0, 0, 1 << 12)
        with pytest.raises(ValueError):
            A.b(2)  # not a multiple of 4
        with pytest.raises(ValueError):
            A.movz(0, 1 << 16)

    def test_assemble_little_endian(self):
        data = A.assemble([0x11223344])
        assert data == bytes([0x44, 0x33, 0x22, 0x11])


class TestArithmetic:
    def test_add_immediate(self, model):
        state = run_one(model, A.add_imm(0, 1, 5), regs={"R1": 10})
        assert state.read_reg(gpr(0)) == 15
        assert state.read_reg(PC) == 0x1004

    def test_add_shift12(self, model):
        state = run_one(model, A.add_imm(0, 1, 1, shift12=True), regs={"R1": 0})
        assert state.read_reg(gpr(0)) == 0x1000

    def test_sub_immediate_wraps(self, model):
        state = run_one(model, A.sub_imm(0, 1, 1), regs={"R1": 0})
        assert state.read_reg(gpr(0)) == (1 << 64) - 1

    def test_add_sp_uses_banked_sp_el2(self, model):
        state = run_one(model, A.add_imm(31, 31, 0x40), regs={"SP_EL2": 0x8000})
        assert state.read_reg(Reg("SP_EL2")) == 0x8040

    def test_add_sp_uses_sp_el0_when_unbanked(self, model):
        state = run_one(
            model,
            A.add_imm(31, 31, 0x40),
            regs={"SP_EL0": 0x100, "SP_EL2": 0x8000},
            pstate_over={"PSTATE.SP": 0},
        )
        assert state.read_reg(Reg("SP_EL0")) == 0x140
        assert state.read_reg(Reg("SP_EL2")) == 0x8000

    def test_cmp_sets_flags_equal(self, model):
        state = run_one(model, A.cmp_reg(1, 2), regs={"R1": 5, "R2": 5})
        assert state.read_reg(pstate("Z")) == 1
        assert state.read_reg(pstate("C")) == 1

    def test_cmp_sets_flags_less(self, model):
        state = run_one(model, A.cmp_reg(1, 2), regs={"R1": 3, "R2": 5})
        assert state.read_reg(pstate("Z")) == 0
        assert state.read_reg(pstate("C")) == 0  # borrow

    def test_adds_overflow_flag(self, model):
        big = 0x7FFF_FFFF_FFFF_FFFF
        state = run_one(model, A.adds_reg(0, 1, 2), regs={"R1": big, "R2": 1})
        assert state.read_reg(pstate("V")) == 1
        assert state.read_reg(pstate("N")) == 1

    def test_xzr_reads_zero(self, model):
        state = run_one(model, A.add_reg(0, 31, 31), regs={"R0": 99})
        assert state.read_reg(gpr(0)) == 0

    def test_w_form_zero_extends(self, model):
        state = run_one(model, A.add_imm(0, 1, 1, sf=0), regs={"R1": 0xFFFF_FFFF})
        assert state.read_reg(gpr(0)) == 0  # 32-bit wrap, zero-extended


class TestLogicalAndMoves:
    def test_mov_reg(self, model):
        state = run_one(model, A.mov_reg(0, 1), regs={"R1": 0x1234})
        assert state.read_reg(gpr(0)) == 0x1234

    def test_movz_with_shift(self, model):
        state = run_one(model, A.movz(0, 0xA, hw=1))
        assert state.read_reg(gpr(0)) == 0xA0000

    def test_movk_keeps_other_bits(self, model):
        state = run_one(model, A.movk(0, 0xBEEF, hw=1), regs={"R0": 0x1111_0000_1111})
        assert state.read_reg(gpr(0)) == 0x1111_BEEF_1111

    def test_movn(self, model):
        state = run_one(model, A.movn(0, 0))
        assert state.read_reg(gpr(0)) == (1 << 64) - 1

    def test_and_or_eor(self, model):
        state = run_one(model, A.and_reg(0, 1, 2), regs={"R1": 0xFF00, "R2": 0x0FF0})
        assert state.read_reg(gpr(0)) == 0x0F00
        state = run_one(model, A.orr_reg(0, 1, 2), regs={"R1": 0xFF00, "R2": 0x0FF0})
        assert state.read_reg(gpr(0)) == 0xFFF0
        state = run_one(model, A.eor_reg(0, 1, 2), regs={"R1": 0xFF00, "R2": 0x0FF0})
        assert state.read_reg(gpr(0)) == 0xF0F0

    def test_tst_immediate_flags(self, model):
        state = run_one(model, A.tst_imm(1, 0x20, sf=0), regs={"R1": 0x20})
        assert state.read_reg(pstate("Z")) == 0
        state = run_one(model, A.tst_imm(1, 0x20, sf=0), regs={"R1": 0x1F})
        assert state.read_reg(pstate("Z")) == 1

    def test_lsr_lsl_immediate(self, model):
        state = run_one(model, A.lsr_imm(0, 1, 4), regs={"R1": 0x100})
        assert state.read_reg(gpr(0)) == 0x10
        state = run_one(model, A.lsl_imm(0, 1, 4), regs={"R1": 0x100})
        assert state.read_reg(gpr(0)) == 0x1000

    def test_rbit(self, model):
        state = run_one(model, A.rbit(0, 1), regs={"R1": 1})
        assert state.read_reg(gpr(0)) == 1 << 63

    def test_csel_csinc(self, model):
        # after cmp equal: eq holds
        state = model.initial_state({"PSTATE.EL": 2, "PSTATE.SP": 1, "PSTATE.Z": 1})
        state.write_reg(PC, 0x1000)
        state.write_reg(gpr(1), 10)
        state.write_reg(gpr(2), 20)
        state.load_bytes(0x1000, A.csel(0, 1, 2, "eq").to_bytes(4, "little"))
        model.step_concrete(state)
        assert state.read_reg(gpr(0)) == 10


class TestDecodeBitMasks:
    @pytest.mark.parametrize(
        "value,datasize",
        [(0x20, 32), (0xFF, 64), (0x0F0F0F0F, 32), (0xAAAAAAAAAAAAAAAA, 64), (1, 64)],
    )
    def test_roundtrip_through_encoder(self, value, datasize):
        immn, immr, imms = A.encode_bitmask_immediate(value, datasize)
        assert decode_bit_masks(immn, imms, immr, datasize) == value

    def test_unencodable_rejected(self):
        with pytest.raises(ValueError):
            A.encode_bitmask_immediate(0, 64)  # all-zeros not encodable
        with pytest.raises(ValueError):
            A.encode_bitmask_immediate((1 << 64) - 1, 64)  # all-ones neither


class TestLoadsStores:
    def test_ldrb_register_offset(self, model):
        state = run_one(
            model,
            A.ldrb_reg(4, 1, 3),
            regs={"R1": 0x100, "R3": 2},
            mem={0x102: (0xAB, 1)},
        )
        assert state.read_reg(gpr(4)) == 0xAB

    def test_strb_register_offset(self, model):
        state = run_one(
            model,
            A.strb_reg(4, 0, 3),
            regs={"R0": 0x200, "R3": 1, "R4": 0x1FF},
            mem={0x201: (0, 1)},
        )
        assert state.read_mem(0x201, 1) == 0xFF  # low byte only

    def test_ldr64_immediate_scaled(self, model):
        state = run_one(
            model,
            A.ldr64_imm(0, 1, 16),
            regs={"R1": 0x100},
            mem={0x110: (0x1122334455667788, 8)},
        )
        assert state.read_reg(gpr(0)) == 0x1122334455667788

    def test_ldr64_register_scaled(self, model):
        state = run_one(
            model,
            A.ldr64_reg(0, 1, 2),
            regs={"R1": 0x100, "R2": 3},
            mem={0x118: (0xCAFE, 8)},
        )
        assert state.read_reg(gpr(0)) == 0xCAFE

    def test_str32(self, model):
        state = run_one(
            model,
            A.str32_imm(0, 1),
            regs={"R0": 0xDDCCBBAA99887766, "R1": 0x100},
            mem={0x100: (0, 4)},
        )
        assert state.read_mem(0x100, 4) == 0x99887766


class TestBranches:
    def test_b_forward(self, model):
        state = run_one(model, A.b(16))
        assert state.read_reg(PC) == 0x1010

    def test_b_backward(self, model):
        state = run_one(model, A.b(-16))
        assert state.read_reg(PC) == 0xFF0

    def test_bl_sets_lr(self, model):
        state = run_one(model, A.bl(8))
        assert state.read_reg(PC) == 0x1008
        assert state.read_reg(gpr(30)) == 0x1004

    def test_cbz_taken_and_not(self, model):
        state = run_one(model, A.cbz(0, 32), regs={"R0": 0})
        assert state.read_reg(PC) == 0x1020
        state = run_one(model, A.cbz(0, 32), regs={"R0": 1})
        assert state.read_reg(PC) == 0x1004

    def test_cbnz(self, model):
        state = run_one(model, A.cbnz(0, 32), regs={"R0": 1})
        assert state.read_reg(PC) == 0x1020

    def test_bcond_eq(self, model):
        state = run_one(model, A.b_cond("eq", -16), pstate_over={"PSTATE.Z": 1})
        assert state.read_reg(PC) == 0xFF0
        state = run_one(model, A.b_cond("eq", -16), pstate_over={"PSTATE.Z": 0})
        assert state.read_reg(PC) == 0x1004

    def test_bcond_lt_uses_n_and_v(self, model):
        state = run_one(model, A.b_cond("lt", 8), pstate_over={"PSTATE.N": 1, "PSTATE.V": 0})
        assert state.read_reg(PC) == 0x1008

    def test_br_blr_ret(self, model):
        state = run_one(model, A.br(5), regs={"R5": 0x4000})
        assert state.read_reg(PC) == 0x4000
        state = run_one(model, A.blr(5), regs={"R5": 0x4000})
        assert state.read_reg(PC) == 0x4000
        assert state.read_reg(gpr(30)) == 0x1004
        state = run_one(model, A.ret(), regs={"R30": 0x7000})
        assert state.read_reg(PC) == 0x7000


class TestSystem:
    def test_nop_advances_pc(self, model):
        state = run_one(model, A.nop())
        assert state.read_reg(PC) == 0x1004

    def test_msr_mrs_roundtrip(self, model):
        state = run_one(model, A.msr("VBAR_EL2", 0), regs={"R0": 0xA0000})
        assert state.read_reg(Reg("VBAR_EL2")) == 0xA0000
        state = run_one(model, A.mrs(1, "VBAR_EL2"), regs={"VBAR_EL2": 0xB0000})
        assert state.read_reg(gpr(1)) == 0xB0000

    def test_hvc_takes_exception_to_el2(self, model):
        state = run_one(
            model,
            A.hvc(0),
            regs={"VBAR_EL2": 0xA0000},
            pstate_over={"PSTATE.EL": 1, "PSTATE.SP": 0},
        )
        assert state.read_reg(PC) == 0xA0400  # lower-EL AArch64 sync entry
        assert state.read_reg(pstate("EL")) == 2
        assert state.read_reg(pstate("SP")) == 1
        assert state.read_reg(Reg("ELR_EL2")) == 0x1004
        esr = state.read_reg(Reg("ESR_EL2"))
        assert esr >> 26 == 0x16  # EC_HVC64
        for f in "DAIF":
            assert state.read_reg(pstate(f)) == 1

    def test_eret_restores_state(self, model):
        state = run_one(
            model,
            A.eret(),
            regs={
                "SPSR_EL2": 0x3C4,  # EL1t, DAIF set
                "ELR_EL2": 0x90000,
                "HCR_EL2": 0x8000_0000,
            },
        )
        assert state.read_reg(PC) == 0x90000
        assert state.read_reg(pstate("EL")) == 1
        assert state.read_reg(pstate("SP")) == 0
        for f in "DAIF":
            assert state.read_reg(pstate(f)) == 1

    def test_alignment_fault_on_misaligned_str(self, model):
        state = run_one(
            model,
            A.str32_imm(0, 1),
            regs={"R1": 0x101, "VBAR_EL2": 0xC0000, "SCTLR_EL2": 0b10},
            mem={0x100: (0, 8)},
        )
        assert state.read_reg(PC) == 0xC0200  # current EL, SPx vector
        assert state.read_reg(Reg("FAR_EL2")) == 0x101
        esr = state.read_reg(Reg("ESR_EL2"))
        assert esr >> 26 == 0x25  # data abort, same EL
        assert esr & 0x3F == 0b100001  # alignment DFSC

    def test_aligned_str_no_fault_despite_sctlr(self, model):
        state = run_one(
            model,
            A.str32_imm(0, 1),
            regs={"R0": 0x55, "R1": 0x100, "SCTLR_EL2": 0b10},
            mem={0x100: (0, 4)},
        )
        assert state.read_mem(0x100, 4) == 0x55
        assert state.read_reg(PC) == 0x1004
