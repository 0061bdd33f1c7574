"""Test cases for differential testing: start states plus programs.

A :class:`ProgramCase` is the one case format of both oracles: the
lockstep co-simulator runs multi-word programs, and the conformance
suite runs one-word ones against the mini-Sail model.  Each executor owns
a :class:`~repro.itl.machine.MachineState` built from the case and the
two are compared with :func:`~repro.itl.machine.diff_states`.  Cases
round-trip through JSON (hex-string registers, per-byte memory), which is
what corpus entries store under ``"case"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..itl.events import Reg
from ..itl.machine import ADDR_MASK, MachineState, diff_states
from .archs import CODE_BASE, MEM_BASE, MEM_LEN, CosimArch

# ``diff_states`` is re-exported: ``perfbench/tracer.py`` times it here.
__all__ = ["ProgramCase", "build_machine_state", "diff_states", "random_case"]


@dataclass
class ProgramCase:
    """One concrete co-sim start state plus its program, JSON-able."""

    regs: dict[str, int] = field(default_factory=dict)
    mem: dict[int, int] = field(default_factory=dict)  # addr -> byte
    pc: int = CODE_BASE
    words: list[int] = field(default_factory=list)  # program, 4-byte words

    def to_json(self) -> dict:
        return {
            "regs": {k: hex(v) for k, v in sorted(self.regs.items())},
            "mem": {hex(a): b for a, b in sorted(self.mem.items())},
            "pc": hex(self.pc),
            "words": [hex(w) for w in self.words],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProgramCase":
        return cls(
            regs={k: int(v, 16) for k, v in data.get("regs", {}).items()},
            mem={int(a, 16): b for a, b in data.get("mem", {}).items()},
            pc=int(data.get("pc", hex(CODE_BASE)), 16),
            words=[int(w, 16) for w in data.get("words", [])],
        )

    def copy(self) -> "ProgramCase":
        return ProgramCase(
            regs=dict(self.regs), mem=dict(self.mem),
            pc=self.pc, words=list(self.words),
        )


def random_case(arch: CosimArch, rng: random.Random, words: list[int]) -> ProgramCase:
    """A random start state in the comparable domain: each varied
    register is a pointer into the memory window, a corner value or
    uniform bits."""
    regs = dict(arch.pins)
    mask = lambda v, w: v & ((1 << w) - 1)  # noqa: E731 — narrow regs (CR fields)
    for name, width in arch.widths:
        roll = rng.random()
        if roll < 0.3:
            regs[name] = mask(MEM_BASE + 8 * rng.randrange(MEM_LEN // 8 - 1), width)
        elif roll < 0.5:
            regs[name] = mask(
                rng.choice([0, 1, 2, 0xFF, (1 << width) - 1, 1 << (width - 1)]),
                width,
            )
        else:
            regs[name] = rng.getrandbits(width)
    for flag in arch.flags:
        regs[flag] = rng.getrandbits(1)
    mem = {MEM_BASE + off: rng.getrandbits(8) for off in range(MEM_LEN)}
    return ProgramCase(regs=regs, mem=mem, pc=CODE_BASE, words=list(words))


def build_machine_state(arch: CosimArch, case: ProgramCase) -> MachineState:
    """Materialise a :class:`MachineState`: a copy of the arch's base state
    (every declared register at its reset value, then the pins), then the
    PC and the case's registers, memory and program."""
    state = arch.base_state.copy()
    state.write_reg(arch.model.pc_reg, case.pc)
    known = arch.regs
    for name, value in case.regs.items():
        reg = known.get(name)
        state.write_reg(Reg.parse(name) if reg is None else reg, value)
    state.mem.update(
        {addr & ADDR_MASK: byte & 0xFF for addr, byte in case.mem.items()}
    )
    for i, word in enumerate(case.words):
        state.load_bytes(case.pc + 4 * i, word.to_bytes(4, "little"))
    return state
