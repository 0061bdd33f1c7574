"""The seeded program generator and its coverage accounting."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from unittest import mock

import pytest

from repro.cosim.archs import COSIM_ARCHS, decode_arm_names
from repro.cosim.generate import CoverageMap, ProgramGenerator, _Slot
from tests._reference import rejection_sample_word


class TestCoverageMap:
    def test_starts_with_every_arm_unhit(self):
        cov = CoverageMap("riscv")
        assert set(cov.counts) == set(decode_arm_names("riscv"))
        assert cov.fraction_hit() == 0.0
        assert cov.unhit() == sorted(decode_arm_names("riscv"))

    def test_record_and_fraction(self):
        cov = CoverageMap("riscv")
        cov.record("op")
        cov.record("op")
        cov.record("load")
        assert cov.counts["op"] == 2
        assert "op" not in cov.unhit()
        assert cov.fraction_hit() == pytest.approx(2 / len(cov.counts))

    def test_merge_sums_counts(self):
        a, b = CoverageMap("arm"), CoverageMap("arm")
        a.record("hint")
        b.record("hint")
        b.record("div")
        a.merge(b)
        assert a.counts["hint"] == 2
        assert a.counts["div"] == 1

    def test_lowest_returns_least_hit_arms(self):
        cov = CoverageMap("riscv")
        for arm in cov.counts:
            if arm != "fence":
                cov.record(arm)
        assert "fence" in cov.lowest(k=1)

    def test_to_json_shape(self):
        cov = CoverageMap("riscv")
        cov.record("op")
        data = cov.to_json()
        assert data["arch"] == "riscv"
        assert data["counts"]["op"] == 1
        assert "op" not in data["unhit"]
        assert 0.0 < data["fraction_hit"] <= 1.0


@pytest.mark.parametrize("arch_name", sorted(COSIM_ARCHS))
class TestProgramGenerator:
    def test_same_seed_same_programs(self, arch_name):
        arch = COSIM_ARCHS[arch_name]
        a = ProgramGenerator(arch, seed=42)
        b = ProgramGenerator(arch, seed=42)
        for _ in range(5):
            pa, pb = a.program(), b.program()
            assert pa.words == pb.words
            assert pa.arms == pb.arms
            assert pa.case.regs == pb.case.regs
            assert pa.case.mem == pb.case.mem

    def test_word_for_arm_covers_every_arm(self, arch_name):
        """Every decode arm has field domains (otherwise the coverage bias
        could never reach it), and each draw is a word of that arm that
        the assembler rebuilds from its disassembly (Metere et al.'s
        re-encoding check).  The sampler never decodes its own draws."""
        arch = COSIM_ARCHS[arch_name]
        sampler = arch.sampler
        rng = random.Random(7)
        for arm in decode_arm_names(arch_name):
            for draw in range(200):
                word = sampler.directed_word(arm, rng, _Slot(index=draw % 6, length=6))
                assert arch.decode.decode_arm(word) == arm, (arm, hex(word))
                text = arch.decode.disassemble(word)
                assert arch.asm.assemble_line(text) == word, (arm, hex(word), text)
                mask, value = sampler.unmodelled.get(arm, (0, 1))
                assert word & mask != value, (arm, hex(word), "unmodelled")

    def test_random_half_matches_the_rejection_sampler(self, arch_name):
        """Drawing an arm by the size of its claim's cube and filling the
        free bits is uniform over decoder-accepted words, as drawing 32-bit
        words until one decodes is: on 4,000 draws each, every arm's share
        agrees with the reference within 0.03 (about 4 standard deviations
        of the difference for the largest arm)."""
        arch = COSIM_ARCHS[arch_name]
        draws = 4000
        ref_rng, rng = random.Random(1), random.Random(1)
        reference = Counter(rejection_sample_word(arch, ref_rng)[1] for _ in range(draws))
        sampled = Counter(arch.sampler.random_word(rng)[1] for _ in range(draws))
        worst = max(abs(reference[arm] - sampled[arm]) / draws
                    for arm in reference | sampled)
        assert worst < 0.03, (worst, reference, sampled)

    def test_random_words_decode_and_skip_unmodelled_cubes(self, arch_name):
        arch = COSIM_ARCHS[arch_name]
        sampler = arch.sampler
        rng = random.Random(3)
        for _ in range(2000):
            word, arm = sampler.random_word(rng)
            assert arch.decode.decode_arm(word) == arm
            mask, value = sampler.unmodelled.get(arm, (0, 1))
            assert word & mask != value, (arm, hex(word))

    def test_programs_decode_and_claim_their_arms(self, arch_name):
        arch = COSIM_ARCHS[arch_name]
        generator = ProgramGenerator(arch, seed=3)
        for _ in range(10):
            program = generator.program()
            assert len(program.words) == len(program.arms) >= 3
            for word, arm in zip(program.words, program.arms):
                assert arch.decode.decode_arm(word) == arm

    def test_bias_converges_to_full_generated_coverage(self, arch_name):
        """The low-count bias must drive *generated* coverage to 100%
        within a modest number of programs."""
        arch = COSIM_ARCHS[arch_name]
        generator = ProgramGenerator(arch, seed=1)
        for _ in range(60):
            generator.program()
            if not generator.coverage.unhit():
                break
        assert generator.coverage.unhit() == [], generator.coverage.to_json()


def test_generation_decodes_at_most_twice_per_word():
    """A count, no timing: at seed 7, 300 programs per arch, generation
    makes at most 2 ``decode_arm`` calls per generated word.  Directed
    words are not decoded at all; a random word costs one call per cube
    draw (about 1.5).  Drawing 32-bit words until one decodes made about 5."""
    for arch in COSIM_ARCHS.values():
        decode = arch.decode
        with mock.patch.object(decode, "decode_arm", wraps=decode.decode_arm) as spy:
            generator = ProgramGenerator(arch, seed=7)
            words = sum(len(generator.program().words) for _ in range(300))
        assert spy.call_count <= 2 * words, (arch.name, spy.call_count, words)


#: sha256 over 40 programs from each of seeds 7, 11 and 2024: their decode
#: arms and start states (words included).  Pins the generator's draws, so
#: a change to how words are decoded cannot change the programs.
PROGRAM_DIGESTS = {
    "arm": "e9f193edbf876b41d53e2e8971c2a1ac536b2aca94f90eec4367546bc1f9f35c",
    "ppc": "a8c76397fa7ab83ddb6344dfbfe90aec3c78618e934bdeb992f638154bf54d8e",
    "riscv": "be73f4d41af62006b270c68e73b922df76f2108f51541ef412eebfa7ab2f0e98",
}


@pytest.mark.parametrize("arch_name", sorted(COSIM_ARCHS))
def test_generated_programs_are_pinned(arch_name):
    digest = hashlib.sha256()
    for seed in (7, 11, 2024):
        generator = ProgramGenerator(COSIM_ARCHS[arch_name], seed)
        for _ in range(40):
            program = generator.program()
            digest.update(
                json.dumps([program.arms, program.case.to_json()], sort_keys=True).encode()
            )
    assert digest.hexdigest() == PROGRAM_DIGESTS[arch_name]
