"""The seeded program generator and its coverage accounting."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cosim.archs import COSIM_ARCHS, decode_arm_names
from repro.cosim.generate import CoverageMap, ProgramGenerator, _Slot


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
        """Every decode arm must have a working directed template —
        otherwise the coverage bias can never reach it."""
        arch = COSIM_ARCHS[arch_name]
        generator = ProgramGenerator(arch, seed=7)
        missing = []
        for arm in decode_arm_names(arch_name):
            word = generator.word_for_arm(arm, _Slot(index=0, length=4))
            if word is None or arch.decode.decode_arm(word) != arm:
                missing.append(arm)
        assert not missing, f"{arch_name}: no directed template for {missing}"

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


#: sha256 over 40 programs from each of seeds 7, 11 and 2024: their decode
#: arms and start states (words included).  Pins the generator's draws, so
#: a change to how words are decoded cannot change the programs.
PROGRAM_DIGESTS = {
    "arm": "5a7837f18335e7c84060fb98d7bb35b1d92cceb3ef4f4c08c1e780eae4cf7dd2",
    "ppc": "aea04c0338d1e01deba74427968dddb8148f21af6c56142f848bc1cec1860d6a",
    "riscv": "54183561da7d1ed519cebeb18b38ea9df0ae6e8a3bc2b99872652085dec916ee",
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
