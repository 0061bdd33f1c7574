"""Decode-arm coverage accounting over the checked-in corpus.

Every arm of every architecture's decoder must be witnessed by at least
one opcode in the conformance corpus — via any entry kind that carries
opcodes (``differential``, ``roundtrip``, ``coverage``, ``cosim``).  When
a decoder grows a new arm, this fails with the exact list of unhit arms,
which is the prompt to check in a witness (the co-sim generator's
``word_for_arm`` makes one).
"""

from __future__ import annotations

import pytest

from repro.cosim.archs import COSIM_ARCHS, decode_arm_names

from ._harness import load_corpus


def _corpus_words(arch_name: str) -> list[int]:
    """Every entry's ``opcode`` plus the program words of its ``case``."""
    words: list[str] = []
    for entry in load_corpus(arch_name):
        words.append(entry["opcode"])
        words += entry.get("case", {}).get("words", [])
    return [int(word, 16) for word in words]


def _hit_arms(arch_name: str) -> set[str]:
    arch = COSIM_ARCHS[arch_name]
    hit: set[str] = set()
    for word in _corpus_words(arch_name):
        try:
            hit.add(arch.decode.decode_arm(word))
        except arch.decode.UnknownInstruction:
            continue  # decode-reject entries are supposed to not decode
    return hit


@pytest.mark.parametrize("arch_name", sorted(COSIM_ARCHS))
class TestDecodeCoverage:
    def test_every_decode_arm_has_a_corpus_witness(self, arch_name):
        universe = set(decode_arm_names(arch_name))
        unhit = sorted(universe - _hit_arms(arch_name))
        assert not unhit, (
            f"{arch_name}: decoder arms with no corpus witness: {unhit} — "
            f"add a 'coverage' entry per arm (repro.cosim's "
            f"ProgramGenerator.word_for_arm generates one)"
        )

    def test_coverage_witnesses_decode_to_their_claimed_arm(self, arch_name):
        arch = COSIM_ARCHS[arch_name]
        for entry in load_corpus(arch_name):
            if entry.get("kind") != "coverage":
                continue
            word = int(entry["opcode"], 16)
            assert arch.decode.decode_arm(word) == entry["arm"], entry
            assert arch.decode.disassemble(word) == entry["text"], entry
