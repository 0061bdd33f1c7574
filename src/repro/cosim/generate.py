"""Seeded random program generation with decode-arm coverage bias.

Words come from the spec (``arch/<isa>/spec.py``) through one
:class:`WordSampler` per architecture.  Half the slots are *directed*:
each field of the chosen arm is drawn from the domains its
``COSIM_FIELDS`` entry (``arch/<isa>/templates.py``) names and the word is
packed with :meth:`~repro.arch.encoding.Encoding.pack`, with no decode
(a test checks that every draw decodes to its arm).  The other half are
*random*: uniform over decoder-accepted words, drawn cube by cube from
the claims' fixed bits.  Neither half emits a word in a
``COSIM_UNMODELLED`` cube, which the model decodes but does not execute.

Arm selection is biased toward the arms with the *lowest* coverage
counters, so long co-sim runs converge to uniform coverage of the decoder
instead of piling onto the dense encodings.  Branch fields land inside
the program (forward-biased so programs usually terminate), which makes
the output multi-block rather than straight-line.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate

from ..analysis.isaspec import fixed_bits_of
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
        return sorted(self.counts, key=self.counts.__getitem__)[:k]

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
    """Which word of how many we are emitting (branch targets need it),
    and the operand registers the start state points into the window."""

    index: int
    length: int
    pointers: tuple = ()

    def branch_offset(self, rng: random.Random) -> int:
        """A branch displacement in bytes landing on a program slot,
        forward-biased."""
        if self.index + 1 < self.length and rng.random() < 0.8:
            target = rng.randrange(self.index + 1, self.length)
        else:
            target = rng.randrange(self.length)
        return (target - self.index) * 4


def _assign(fields: dict, setters: tuple, value) -> None:
    """Store ``value`` (a tuple for joint targets) through ``setters``."""
    for name, index, lo, mask in setters:
        fields[name] = ((value if index is None else value[index]) >> lo) & mask


class WordSampler:
    """Draws one architecture's words from its spec field tables.

    ``COSIM_FIELDS`` maps each decode arm to a *form* or a tuple of
    entries, one drawn uniformly (nesting weights them).  A form maps a
    target to a domain.  The target is a field name; a tuple of field
    names, whose domain holds value tuples; or a tuple of ``(field, hi,
    lo)`` slices, each field taking ``value[hi:lo]``.  The domain is an
    int, a sequence drawn uniformly, or the name of one of the
    architecture's :attr:`~repro.cosim.archs.CosimArch.operands`.
    Negative values are stored two's-complement.
    """

    def __init__(self, arch: CosimArch) -> None:
        info = registry.get(arch.name)
        templates = info.templates()
        self.arch = arch
        self._pack = info.encode().ENCODING.pack
        #: arm -> ``(mask, value)`` of the words neither half emits.
        self.unmodelled = {
            arm: fixed_bits_of(clauses)
            for arm, clauses in templates.COSIM_UNMODELLED.items()
        }
        spec_arms = {arm.name: arm for arm in info.spec_arms()}
        self._cubes = []
        for name, spec_arm in spec_arms.items():
            mask, fixed = fixed_bits_of(spec_arm.match)
            self._cubes.append((name, 0xFFFFFFFF & ~mask, fixed, self.unmodelled.get(name)))
        self._cum_weights = list(
            accumulate(1 << bin(free).count("1") for _, free, _, _ in self._cubes)
        )
        self._forms = {
            arm: self._compile(spec_arms[arm], entry)
            for arm, entry in templates.COSIM_FIELDS.items()
        }

    def _compile(self, spec_arm, entry):
        """A form as its constant fields plus ``(domain, setters)`` draws,
        operand names resolved; a choice of entries as a list."""
        if isinstance(entry, tuple):
            return [self._compile(spec_arm, sub) for sub in entry]
        masks = {name: (1 << (hi - lo + 1)) - 1 for name, hi, lo in spec_arm.fields}
        constants, draws = {}, []
        for target, domain in entry.items():
            if isinstance(domain, str):
                domain = self.arch.operands[domain]
            if isinstance(target, str):
                setters = ((target, None, 0, masks[target]),)
            elif isinstance(target[0], str):
                setters = tuple((name, i, 0, masks[name]) for i, name in enumerate(target))
            else:
                setters = tuple((name, None, lo, masks[name]) for name, _hi, lo in target)
            if isinstance(domain, int):
                _assign(constants, setters, domain)
            else:
                draws.append((domain, setters))
        return constants, draws

    def random_word(self, rng: random.Random) -> tuple[int, str]:
        """A uniformly drawn decoder-accepted word, with its arm: an arm
        picked with weight ``2**free`` (the bits its claim leaves free),
        those bits filled uniformly, kept if the decoder gives that arm.
        An accepted word lies in its own arm's cube and is reached only
        through it, so every accepted word is equally likely."""
        decode = self.arch.decode
        cubes, cum_weights = self._cubes, self._cum_weights
        total = cum_weights[-1]
        while True:
            name, free, fixed, unmodelled = cubes[bisect(cum_weights, rng.random() * total)]
            word = fixed | (rng.getrandbits(32) & free)
            if unmodelled is not None and word & unmodelled[0] == unmodelled[1]:
                continue
            try:
                if decode.decode_arm(word) == name:
                    return word, name
            except decode.UnknownInstruction:
                continue

    def directed_word(self, arm: str, rng: random.Random, slot: _Slot) -> int:
        """A word of ``arm`` with its fields drawn from ``COSIM_FIELDS``."""
        form = self._forms[arm]
        while isinstance(form, list):
            form = rng.choice(form)
        constants, draws = form
        fields = dict(constants)
        for domain, setters in draws:
            _assign(fields, setters, domain(rng, slot) if callable(domain) else rng.choice(domain))
        return self._pack(arm, **fields)


class ProgramGenerator:
    """Seeded generator of multi-block programs with coverage-biased arms."""

    #: Probability of steering a slot toward a directed word; directed
    #: slots split evenly between low-coverage arms and a uniform draw, so
    #: dense encodings (whose counters random words keep pumping) still get
    #: directed operands instead of only uniform-random ones.
    BIAS = 0.5

    def __init__(self, arch: CosimArch, seed: int) -> None:
        self.arch = arch
        self.rng = random.Random(seed)
        self.coverage = CoverageMap(arch.name)
        self._arm_names = sorted(self.coverage.counts)
        self._sampler = arch.sampler

    def program(self, min_words: int = 3, max_words: int = 10) -> GeneratedProgram:
        """A start state in the comparable domain, then a random program
        whose directed memory accesses use the state's window pointers."""
        rng, sampler = self.rng, self._sampler
        length = rng.randrange(min_words, max_words + 1)
        case = random_case(self.arch, rng, [])
        pointers = self.arch.window_pointers(case.regs)
        arms: list[str] = []
        for index in range(length):
            if rng.random() < self.BIAS:
                pool = self.coverage.lowest() if rng.random() < 0.5 else self._arm_names
                arm = rng.choice(pool)
                slot = _Slot(index=index, length=length, pointers=pointers)
                word = sampler.directed_word(arm, rng, slot)
            else:
                word, arm = sampler.random_word(rng)
            self.coverage.record(arm)
            case.words.append(word)
            arms.append(arm)
        return GeneratedProgram(case=case, arms=arms)
