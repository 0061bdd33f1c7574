"""The assemblers and encoders fail closed on untrusted input.

Every word is packed through the spec's field tables, which reject a value
that does not fit its field; the assemblers turn that, and any malformed
line, into ``AsmError``.  An operand that does not fit must never be
truncated into a different (or undecodable) word.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import registry
from repro.arch.riscv import encode as RV

ARCHS = registry.names()


def _asm(arch):
    return registry.get(arch).asm()


def _line(arch: str, line: str):
    asm = _asm(arch)
    return pytest.param(
        lambda: asm.assemble_line(line), asm.AsmError, id=f"{arch}-{line}"
    )


@pytest.mark.parametrize("build,error", [
    _line("riscv", "lui a0, 0x100000"),
    _line("riscv", "addi a0, a0, 4096"),
    _line("riscv", "slli a0, a0, 64"),
    _line("arm", "movz x1, #0x10000"),
    _line("arm", "add x1, x2, x3, lsl #64"),
    _line("arm", "hvc #0x10000"),
    _line("ppc", "addi r3, r4, 32768"),
    _line("ppc", "bcctr 0, 0"),
    pytest.param(lambda: RV.lui(10, 0x100000), ValueError, id="riscv-encode.lui"),
    pytest.param(lambda: RV.slli(10, 10, 64), ValueError, id="riscv-encode.slli"),
])
def test_operand_out_of_range_fails_closed(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("arch,line", [
    ("arm", "add x1"),
    ("arm", "hvc #zz"),
    ("arm", "ldr x1, [x2, x3, ror #3]"),
    ("riscv", "addi a0"),
    ("riscv", "lui"),
    ("ppc", "lwz r3, 8"),
])
def test_malformed_line_raises_asm_error(arch, line):
    asm = _asm(arch)
    with pytest.raises(asm.AsmError):
        asm.assemble_line(line)


class TestPack:
    """``Encoding.pack``, the one word packer, on the RISC-V tables."""

    OP = {"funct7": 0, "rs2": 3, "rs1": 2, "funct3": 0, "rd": 1}

    def test_packs_fields_over_the_fixed_bits(self):
        assert RV.ENCODING.pack("op", **self.OP) == RV.add(1, 2, 3)

    def test_fully_fixed_arm_needs_no_fields(self):
        assert RV.ENCODING.pack("fence") == 0x0FF0000F

    @pytest.mark.parametrize("change,message", [
        ({"bogus": 1}, "no field"),
        ({"rd": 32}, "does not fit"),
        ({"rd": -1}, "does not fit"),
        ({"major": 0}, "clashes with a fixed bit"),
    ])
    def test_rejects_a_bad_field(self, change, message):
        with pytest.raises(ValueError, match=message):
            RV.ENCODING.pack("op", **{**self.OP, **change})

    def test_rejects_a_missing_field(self):
        with pytest.raises(ValueError, match="needs field"):
            RV.ENCODING.pack("op", rd=1)


def _vocabulary(arch: str) -> tuple[list[str], list[str]]:
    """Mnemonics and operand tokens the disassembler really prints."""
    decode = registry.get(arch).decode()
    rng = random.Random(7)
    mnemonics, tokens = set(), set()
    for _ in range(3000):
        text = decode.try_disassemble(rng.getrandbits(32))
        if text.startswith(".word"):
            continue
        mnemonic, _, rest = text.partition(" ")
        mnemonics.add(mnemonic)
        tokens.update(t.strip() for t in rest.split(",") if t.strip())
    return sorted(mnemonics), sorted(tokens)


_VOCAB = {arch: _vocabulary(arch) for arch in ARCHS}
_GARBAGE = ["", "#", "#zz", "zz", "[x1", "x1]", "()", "8(", "lsl", "-", "0x"]


def _token(arch: str):
    _, tokens = _VOCAB[arch]
    number = st.integers(-(1 << 40), 1 << 40)
    return st.one_of(
        st.sampled_from(tokens),
        st.sampled_from(_GARBAGE),
        number.map(str),
        number.map(lambda n: f"#{n}"),
        number.map(lambda n: f"#{n:#x}" if n >= 0 else f"#-{-n:#x}"),
        number.map(lambda n: f"{n}(r1)" if arch == "ppc" else f"{n}(a0)"),
        number.map(lambda n: f"[x1, #{n}]"),
        number.map(lambda n: f"lsl #{n}"),
    )


@pytest.mark.parametrize("arch", ARCHS)
def test_any_line_assembles_to_a_decodable_word_or_raises_asm_error(arch):
    asm = _asm(arch)
    decode = registry.get(arch).decode()
    mnemonics, _ = _VOCAB[arch]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.sampled_from(mnemonics + ["bogus"]),
        st.lists(_token(arch), max_size=5),
    )
    def check(mnemonic, operands):
        line = f"{mnemonic} {', '.join(operands)}".strip()
        try:
            word = asm.assemble_line(line)
        except asm.AsmError:
            return
        assert 0 <= word < 1 << 32, line
        decode.decode_arm(word)  # raises on an undecodable word

    check()
