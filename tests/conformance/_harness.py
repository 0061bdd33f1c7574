"""Shared pieces of the differential conformance suite.

The suite draws random *valid* encodings (random 32-bit words filtered
through the decoder, mixed with directed templates for the sparse corners
of the encoding space) and checks each against the mini-Sail model from
random machine states.  A case is a one-word :class:`repro.cosim`
``ProgramCase``; states, traces, divergences, the shrinker and the corpus
entry shape all come from ``repro.cosim``.  This module keeps what is
particular to the suite: the word generator, the model-vs-trace check
and the corpus loader.

Everything architecture-specific — models, codecs, register pools, pins,
directed templates — comes from :mod:`repro.arch.registry`, so a new
architecture joins this suite by registering itself, not by editing it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.arch import registry
from repro.cosim import COSIM_ARCHS as ARCHS
from repro.cosim.driver import Divergence, cached_trace
from repro.cosim.state import ProgramCase, build_machine_state
from repro.validation import RefinementError, simulate_state

CORPUS_DIR = Path(__file__).parent / "corpus"

_TEMPLATES = {
    info.name: list(info.templates().CONFORMANCE_TEMPLATES)
    for info in registry.infos()
}


def directed_word(arch, rng: random.Random) -> int:
    line = rng.choice(_TEMPLATES[arch.name]).format(
        r=rng.randrange(31), n=rng.randrange(31), m=rng.randrange(31),
        t=rng.randrange(7), u=rng.randrange(7), h=rng.randrange(1, 16),
    )
    return arch.asm.assemble_line(line)


def random_valid_word(arch, rng: random.Random) -> int:
    """A decoder-accepted word: random sampling with directed templates mixed in."""
    if rng.random() < 0.15:
        return directed_word(arch, rng)
    while True:
        word = rng.getrandbits(32)
        try:
            arch.decode.disassemble(word)
            return word
        except arch.decode.UnknownInstruction:
            continue


def check(arch, case: ProgramCase) -> Divergence | None:
    """Run a one-word case through the mini-Sail model and its ITL trace.

    Returns None on agreement and a ``"differential"`` divergence
    otherwise.  ``ModelError`` (e.g. a partially-mapped access straddling
    the window) means the *state* is outside the comparable domain, not
    that the semantics diverge; it propagates.
    """
    opcode = case.words[0]
    trace = cached_trace(arch, opcode)
    try:
        simulate_state(arch.model, opcode, trace, build_machine_state(arch, case))
    except RefinementError as exc:
        return Divergence(
            arch=arch.name, case=case, step=0, pc=case.pc, opcode=opcode,
            arm=arch.decode.decode_arm(opcode), details=[exc.detail],
            kind="differential",
        )
    return None


def load_corpus(arch_name: str, corpus_dir: Path = CORPUS_DIR) -> list[dict]:
    """The entries of one architecture's corpus file ("#" lines skipped)."""
    path = Path(corpus_dir) / f"{arch_name}.jsonl"
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(json.loads(line))
    return entries
