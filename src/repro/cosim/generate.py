"""Seeded random program generation with decode-arm coverage bias.

The generator assembles short multi-block programs through the existing
per-architecture assemblers (``arch/*/asm.py``) — one directed template
family per decode arm — mixed with decoder-filtered random words, and
keeps a per-arm :class:`CoverageMap`.  Arm selection is biased toward the
arms with the *lowest* counters, so long co-sim runs converge to uniform
coverage of the decoder instead of piling onto the dense encodings.

Branch-family templates pick targets *inside* the program (forward-biased
so generated programs usually terminate), which is what makes the output
multi-block rather than straight-line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..arch import registry
from .archs import CosimArch, decode_arm_names
from .state import ProgramCase, random_case


class CoverageMap:
    """Per-decode-arm hit counters for one architecture."""

    def __init__(self, arch_name: str) -> None:
        self.arch_name = arch_name
        self.counts: dict[str, int] = {name: 0 for name in decode_arm_names(arch_name)}

    def record(self, arm: str) -> None:
        self.counts[arm] = self.counts.get(arm, 0) + 1

    def merge(self, other: "CoverageMap") -> None:
        for arm, count in other.counts.items():
            self.counts[arm] = self.counts.get(arm, 0) + count

    def unhit(self) -> list[str]:
        return sorted(arm for arm, count in self.counts.items() if count == 0)

    def fraction_hit(self) -> float:
        if not self.counts:
            return 1.0
        hit = sum(1 for count in self.counts.values() if count > 0)
        return hit / len(self.counts)

    def lowest(self, k: int = 4) -> list[str]:
        """The ``k`` arms with the fewest hits (the bias targets)."""
        return sorted(self.counts, key=lambda arm: self.counts[arm])[:k]

    def to_json(self) -> dict:
        return {
            "arch": self.arch_name,
            "counts": dict(sorted(self.counts.items())),
            "fraction_hit": round(self.fraction_hit(), 4),
            "unhit": self.unhit(),
        }


@dataclass
class GeneratedProgram:
    """One generated program: its words, per-word decode arms, start state."""

    case: ProgramCase
    arms: list[str] = field(default_factory=list)

    @property
    def words(self) -> list[int]:
        return self.case.words


@dataclass
class _Slot:
    """Template context: which word of how many we are emitting."""

    index: int
    length: int

    def branch_offset(self, rng: random.Random, scale: int = 4) -> int:
        """A branch displacement landing on a program slot, forward-biased."""
        if self.index + 1 < self.length and rng.random() < 0.8:
            target = rng.randrange(self.index + 1, self.length)
        else:
            target = rng.randrange(self.length)
        return (target - self.index) * scale


class ProgramGenerator:
    """Seeded generator of multi-block programs with coverage-biased arms."""

    #: Probability of steering a slot toward a directed template; directed
    #: slots split evenly between low-coverage arms and a uniform draw, so
    #: dense encodings (whose counters random words keep pumping) still get
    #: template-quality operands instead of only uniform-random ones.
    BIAS = 0.5

    def __init__(self, arch: CosimArch, seed: int) -> None:
        self.arch = arch
        self.rng = random.Random(seed)
        self.coverage = CoverageMap(arch.name)
        self._arm_names = sorted(self.coverage.counts)
        self._templates = registry.get(arch.name).templates().cosim_templates

    # -- single words -------------------------------------------------------

    def random_valid_word(self) -> tuple[int, str]:
        """A decoder-accepted word by rejection sampling, with its arm."""
        while True:
            word = self.rng.getrandbits(32)
            try:
                return word, self.arch.decode.decode_arm(word)
            except self.arch.decode.UnknownInstruction:
                continue

    def word_for_arm(self, arm: str, slot: _Slot) -> int | None:
        """A word decoding to ``arm``, via the directed template (a few
        retries absorb operand combinations the assembler rejects)."""
        for _ in range(8):
            template = self._templates(self.rng, slot).get(arm)
            if template is None:
                return None
            try:
                word = self.arch.asm.assemble_line(template())
            except self.arch.asm.AsmError:
                continue
            if self.arch.decode.decode_arm(word) == arm:
                return word
        return None

    # -- whole programs -----------------------------------------------------

    def program(self, min_words: int = 3, max_words: int = 10) -> GeneratedProgram:
        """One random program plus a start state in the comparable domain."""
        length = self.rng.randrange(min_words, max_words + 1)
        words: list[int] = []
        arms: list[str] = []
        for index in range(length):
            slot = _Slot(index=index, length=length)
            word = None
            if self.rng.random() < self.BIAS:
                pool = (
                    self.coverage.lowest()
                    if self.rng.random() < 0.5
                    else self._arm_names
                )
                arm = self.rng.choice(pool)
                word = self.word_for_arm(arm, slot)
            if word is None:
                word, arm = self.random_valid_word()
            self.coverage.record(arm)
            words.append(word)
            arms.append(arm)
        case = random_case(self.arch, self.rng, words)
        return GeneratedProgram(case=case, arms=arms)
