"""Per-architecture co-simulation profiles.

One :class:`CosimArch` per registered architecture bundles everything the
generator and driver need: the mini-Sail model (for the authoritative
side), the decoder (arm accounting), the assembler, the pinned registers
the ITL traces assume, the register/memory domain generated states draw
from, and the operand domains directed words draw their fields from
(:attr:`CosimArch.operands`).  All of it comes from
:mod:`repro.arch.registry` — adding an architecture there adds it here.

ARM runs pinned at EL2 with the banked stack pointer selected and
alignment checking off (``SCTLR_EL2 = 0``); RISC-V and OpenPOWER need
no pins.  Generated programs may *leave* this
domain (an ``eret`` dropping to EL1, an ``msr`` to SCTLR_EL2); the driver
detects that and ends the case — the ITL traces were generated under the
pinned assumptions and are only authoritative inside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..arch import registry
from ..isla import Assumptions
from ..itl.events import Reg
from ..itl.machine import MachineState

#: Mapped memory window for generated states: registers are biased to
#: point into it so loads/stores hit real memory as well as the MMIO
#: device fallback.
MEM_BASE = 0x5000
MEM_LEN = 64

#: Where generated programs are placed.
CODE_BASE = 0x1000


@dataclass(frozen=True)
class CosimArch:
    """Everything the co-sim stack needs to know about one architecture."""

    name: str
    model: object
    decode: object
    asm: object
    pins: dict
    vary: tuple
    flags: tuple
    operand_regs: tuple

    # The cached properties below are built once per profile; a frozen
    # dataclass still has an instance ``__dict__`` for them to live in.

    @cached_property
    def _assumptions(self) -> Assumptions:
        out = Assumptions()
        for name, value in self.pins.items():
            out.pin(name, value, self.model.regfile.width_of(self.regs[name]))
        return out

    def assumptions(self) -> Assumptions:
        """The pinned registers as Isla assumptions: one object per
        profile, shared by every trace generation; never mutate it."""
        return self._assumptions

    @cached_property
    def _arms(self) -> dict[int, str | None]:
        return {}

    def arm_of(self, opcode: int) -> str | None:
        """``opcode``'s decode arm, or None when the decoder rejects it.
        Decoded once per profile and shared by the driver and the
        interpreter; decoding is pure, so shards share it without a lock."""
        arms = self._arms
        try:
            return arms[opcode]
        except KeyError:
            pass
        try:
            arm = self.decode.decode_arm(opcode)
        except self.decode.UnknownInstruction:
            arm = None
        arms[opcode] = arm
        return arm

    @cached_property
    def regs(self) -> dict[str, Reg]:
        """Every pinned, varied and flag register name, parsed."""
        names = (*self.pins, *self.vary, *self.flags)
        return {name: Reg.parse(name) for name in names}

    @cached_property
    def widths(self) -> tuple[tuple[str, int], ...]:
        """``(name, width)`` of each varied register, in ``vary`` order."""
        width_of = self.model.regfile.width_of
        return tuple((name, width_of(self.regs[name])) for name in self.vary)

    @cached_property
    def base_state(self) -> MachineState:
        """Every declared register at its reset value, then the pins.
        Start states are copies of it; never mutate it."""
        state = self.model.initial_state()
        for name, value in self.pins.items():
            state.write_reg(self.regs[name], value)
        return state

    @cached_property
    def _numbered_regs(self) -> tuple[tuple[int, str], ...]:
        return tuple((int(name[1:]), name) for name in self.operand_regs)

    def window_pointers(self, regs: dict) -> tuple[int, ...]:
        """The numbers of the operand registers ``regs`` points into the
        mapped window."""
        return tuple(
            number for number, name in self._numbered_regs
            if MEM_BASE <= regs.get(name, -1) < MEM_BASE + MEM_LEN
        )

    @cached_property
    def operands(self) -> dict:
        """The named operand domains a spec field table may draw from:
        registers outside the pins; a memory base, which is a register the
        start state points into the mapped window when there is one;
        branch displacements (bytes) that land on a program slot; and
        absolute addresses in the mapped window."""
        regs = tuple(number for number, _ in self._numbered_regs)
        return {
            "reg": regs,
            "base": lambda rng, slot: rng.choice(slot.pointers or regs),
            "branch": lambda rng, slot: slot.branch_offset(rng),
            "window": range(MEM_BASE, MEM_BASE + MEM_LEN),
            # Word-aligned, in the first three quarters: a doubleword fits.
            "window_word": range(MEM_BASE, MEM_BASE + 3 * MEM_LEN // 4, 4),
        }

    @cached_property
    def sampler(self):
        """The :class:`~repro.cosim.generate.WordSampler`, built once."""
        from .generate import WordSampler

        return WordSampler(self)

    def pins_hold(self, state) -> bool:
        """Do the pinned-register assumptions still hold in ``state``?

        ITL traces are generated under these assumptions; once a program
        escapes them (eret, msr to a pinned register) the oracle side is
        no longer authoritative and the case must end.
        """
        regs = self.regs
        for name, value in self.pins.items():
            if state.read_reg(regs[name]) != value:
                return False
        return True


def decode_arm_names(arch_name: str) -> list[str]:
    """The full universe of decode-arm names, straight from the decoders."""
    return list(registry.get(arch_name).decode_arms())


def _build_archs() -> dict[str, CosimArch]:
    return {
        info.name: CosimArch(
            name=info.name,
            model=info.model(),
            decode=info.decode(),
            asm=info.asm(),
            pins=info.pin_dict(),
            vary=info.vary,
            flags=info.flags,
            operand_regs=info.operand_regs,
        )
        for info in registry.infos()
    }


COSIM_ARCHS: dict[str, CosimArch] = _build_archs()
