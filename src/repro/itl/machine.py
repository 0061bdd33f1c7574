"""Machine configurations for the ITL operational semantics.

A machine state Σ is a triple ``(R, I, M)`` of finite partial maps (Fig. 10):

- ``R : Reg ⇀ Val`` — register values (concrete ints/bools here),
- ``I : Addr ⇀ Trace`` — the *instruction map*, assigning an ITL trace to
  each address holding an instruction,
- ``M : Addr ⇀ Byte`` — byte memory.

Addresses are 64-bit integers.  Reads/writes of unmapped memory are visible
events (memory-mapped IO), so ``M`` deliberately stays partial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import Reg
from .trace import Trace

ADDR_BITS = 64
ADDR_MASK = (1 << ADDR_BITS) - 1


@dataclass
class MachineState:
    """Σ = (R, I, M) with concrete values."""

    regs: dict[Reg, object] = field(default_factory=dict)
    instrs: dict[int, Trace] = field(default_factory=dict)
    mem: dict[int, int] = field(default_factory=dict)
    pc_reg: Reg = field(default_factory=lambda: Reg("_PC"))

    # -- registers -----------------------------------------------------------

    def read_reg(self, reg: Reg):
        """R[r], or None when unmapped."""
        return self.regs.get(reg)

    def write_reg(self, reg: Reg, value) -> None:
        self.regs[reg] = value

    # -- memory ----------------------------------------------------------------

    def mem_mapped(self, addr: int, nbytes: int) -> bool:
        """Is the whole range [addr, addr+nbytes) backed by M?"""
        return all(((addr + i) & ADDR_MASK) in self.mem for i in range(nbytes))

    def mem_unmapped(self, addr: int, nbytes: int) -> bool:
        """Is the whole range outside M?  (Partial overlap is a fault.)"""
        return all(((addr + i) & ADDR_MASK) not in self.mem for i in range(nbytes))

    def read_mem(self, addr: int, nbytes: int) -> int:
        """Little-endian read of a mapped range (Σ[a..a+n])."""
        value = 0
        for i in range(nbytes):
            value |= self.mem[(addr + i) & ADDR_MASK] << (8 * i)
        return value

    def write_mem(self, addr: int, value: int, nbytes: int) -> None:
        """Little-endian write (enc(b) in the paper)."""
        for i in range(nbytes):
            self.mem[(addr + i) & ADDR_MASK] = (value >> (8 * i)) & 0xFF

    def load_bytes(self, addr: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            self.mem[(addr + i) & ADDR_MASK] = byte

    # -- instruction map ----------------------------------------------------------

    def instr_at(self, addr: int) -> Trace | None:
        return self.instrs.get(addr & ADDR_MASK)

    def set_instr(self, addr: int, trace: Trace) -> None:
        self.instrs[addr & ADDR_MASK] = trace

    def copy(self) -> "MachineState":
        return MachineState(
            dict(self.regs), dict(self.instrs), dict(self.mem), self.pc_reg
        )


def diff_states(
    a: MachineState,
    b: MachineState,
    labels_a: list | None = None,
    labels_b: list | None = None,
    a_name: str = "interp",
    b_name: str = "itl",
) -> list[str]:
    """All observable differences between two machine states.

    Returns human-readable difference lines, one per diverging register,
    memory byte, or label stream, in sorted order (registers by name, then
    addresses, then labels); empty means the states agree.  The first
    line's *subject* (``register R3``, ``memory 0x5008``, ``labels``) is
    what a divergence signature keeps.

    Equal maps have no differences, so agreeing states (the common case in
    lockstep co-simulation) return at once, before any sorting.
    """
    if (
        a.regs == b.regs
        and a.mem == b.mem
        and (labels_a is None or labels_b is None or labels_a == labels_b)
    ):
        return []
    out: list[str] = []
    for reg in sorted(set(a.regs) | set(b.regs), key=str):
        va, vb = a.read_reg(reg), b.read_reg(reg)
        if va != vb:
            out.append(
                f"register {reg} diverges: {a_name}={va!r} vs {b_name}={vb!r}"
            )
    for addr in sorted(set(a.mem) | set(b.mem)):
        va, vb = a.mem.get(addr), b.mem.get(addr)
        if va != vb:
            out.append(
                f"memory 0x{addr:x} diverges: {a_name}={va!r} vs {b_name}={vb!r}"
            )
    if labels_a is not None and labels_b is not None and labels_a != labels_b:
        out.append(
            f"labels diverge: {a_name}={labels_a} vs {b_name}={labels_b}"
        )
    return out
