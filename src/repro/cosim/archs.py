"""Per-architecture co-simulation profiles.

One :class:`CosimArch` per registered architecture bundles everything the
generator and driver need: the mini-Sail model (for the authoritative
side), the decoder (arm accounting), the assembler (directed templates),
the pinned registers the ITL traces assume, and the register/memory domain
generated states draw from.  All of it comes from
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

    def assumptions(self) -> Assumptions:
        out = Assumptions()
        for reg, value in self.pins.items():
            out.pin(reg, value, self.model.regfile.width_of(Reg.parse(reg)))
        return out

    # The cached properties below are built once per profile; a frozen
    # dataclass still has an instance ``__dict__`` for them to live in.

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
        )
        for info in registry.infos()
    }


COSIM_ARCHS: dict[str, CosimArch] = _build_archs()
