"""Shrinking must re-verify the *original* divergence after every reduction.

Regression test for a real shrinker bug: the conformance suite's shrinker
once accepted any failing candidate, so a reduction step could mask the
original divergence and swap in a different one — the recorded "minimized
reproducer" then witnessed a failure nobody ever observed.  Both rigs now
use the one shrinker, ``repro.cosim.driver.shrink_case``, with a
``still_fails`` predicate that compares :attr:`Divergence.signature`
after every reduction.
"""

from __future__ import annotations

import random

import pytest

from repro.arch import registry
from repro.cosim.driver import Divergence, shrink_case
from repro.cosim.state import ProgramCase

from ._harness import ARCHS, random_valid_word

ARCH = ARCHS["riscv"]
OPCODE = ARCH.asm.assemble_line("add t0, t1, t2")

#: The divergence originally observed: present only while x5 == 5.
ORIGINAL = "register x5 diverges: model=5 vs ITL=6"
#: A *different* divergence every other state exhibits.
DECOY = "memory 0x5000 diverges: model=0 vs ITL=1"


def _divergence(case: ProgramCase, detail: str) -> Divergence:
    return Divergence(
        arch=ARCH.name, case=case, step=0, pc=case.pc, opcode=case.words[0],
        arm="", details=[detail], kind="differential",
    )


def _fake_check(case: ProgramCase) -> Divergence:
    """Divergence oracle: the original failure needs x5 == 5; anything
    else still fails, but differently."""
    return _divergence(case, ORIGINAL if case.regs.get("x5") == 5 else DECOY)


def _signature(detail: str, opcode: int = OPCODE) -> str:
    return _divergence(ProgramCase(words=[opcode]), detail).signature


class TestFailureSignature:
    def test_values_are_stripped(self):
        a = "register R3 diverges: model=1 vs ITL=2"
        b = "register R3 diverges: model=7 vs ITL=9"
        assert _signature(a) == _signature(b)

    def test_different_subjects_differ(self):
        a = "register R3 diverges: model=1 vs ITL=2"
        b = "register R4 diverges: model=1 vs ITL=2"
        c = "memory 0x5008 diverges: model=1 vs ITL=2"
        assert _signature(a) != _signature(b)
        assert _signature(a) != _signature(c)

    def test_bottom_messages_keep_their_text(self):
        reason = "ITL run reached ⊥ (partially mapped read)"
        assert _signature(reason).endswith(reason)
        assert _signature(reason) != _signature("ITL run reached ⊥ (other)")

    def test_opcode_is_part_of_the_signature(self):
        detail = "register R3 diverges: model=1 vs ITL=2"
        assert _signature(detail, 0x13) != _signature(detail, 0x33)


class TestShrinkPreservesDivergence:
    def test_shrink_keeps_the_original_signature(self):
        case = ProgramCase(
            regs={"x5": 5, "x6": 77, "x7": 3}, mem={0x5000: 1}, words=[OPCODE]
        )
        target = _fake_check(case).signature
        shrunk = shrink_case(
            ARCH, case, lambda c: _fake_check(c).signature == target
        )
        # The load-bearing register survived with its load-bearing value...
        assert shrunk.regs.get("x5") == 5
        # ...and the final case still reproduces the original divergence.
        assert _fake_check(shrunk).signature == target
        # The irrelevant state was still reduced.
        assert shrunk.mem == {}
        assert set(shrunk.regs) < set(case.regs) | {"x5"}

    def test_unfixed_behaviour_would_mask_the_divergence(self):
        """A predicate that accepts any failure (the pre-fix behaviour)
        lets the shrunk case drift to the decoy.  This documents exactly
        the bug the signature comparison closes."""
        case = ProgramCase(regs={"x5": 5, "x6": 77}, mem={0x5000: 1}, words=[OPCODE])
        shrunk = shrink_case(ARCH, case, lambda c: _fake_check(c) is not None)
        assert _fake_check(shrunk).details == [DECOY]


@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_one_word_case_keeps_its_opcode(arch_name):
    """A one-word case is never shrunk to another instruction, not even
    to the NOP that would fail with the same subject: the signature holds
    the diverging opcode."""
    arch = ARCHS[arch_name]
    nop = registry.get(arch_name).nop
    word = random_valid_word(arch, random.Random(1))
    assert word != nop
    reg = arch.vary[0]

    def check(case: ProgramCase) -> Divergence:
        # Fails with the same subject whatever the word.
        return Divergence(
            arch=arch.name, case=case, step=0, pc=case.pc, opcode=case.words[0],
            arm="", details=[f"register {reg} diverges: model=0 vs ITL=1"],
        )

    case = ProgramCase(regs={reg: 5}, words=[word])
    target = check(case).signature
    shrunk = shrink_case(arch, case, lambda c: check(c).signature == target)
    assert shrunk.words == [word]
    # Keyed on the subject alone, the same shrink would swap in the NOP.
    subject = target.split(": ", 1)[1]
    loose = shrink_case(
        arch, case, lambda c: check(c).signature.endswith(subject)
    )
    assert loose.words == [nop]
