"""Base class for mini-Sail ISA models.

An :class:`IsaModel` bundles the register file, the PC register name, the
fetch/decode entry point, and architecture metadata.  Both the concrete
interpreter and Isla-style symbolic execution drive models exclusively
through this interface, so everything downstream (trace generation,
separation logic, validation) is generic in the architecture — the property
§2.7 of the paper demonstrates by swapping Armv8-A for RISC-V.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..itl.events import Reg
from ..itl.machine import MachineState
from ..smt import builder as B
from ..smt.terms import Term
from .concrete import ConcreteMachine
from .iface import MachineInterface
from .registers import RegisterFile


class IsaModel(ABC):
    """An executable ISA specification."""

    #: architecture name, e.g. "armv8-a" / "riscv64"
    name: str
    #: register holding the program counter
    pc_reg: Reg
    #: instruction width in bytes (4 for both A64 and RV64I base)
    instr_bytes: int = 4

    def __init__(self) -> None:
        self.regfile = RegisterFile()
        self._declare_registers(self.regfile)

    @abstractmethod
    def _declare_registers(self, regfile: RegisterFile) -> None:
        """Populate the register file."""

    @abstractmethod
    def execute(self, m: MachineInterface, opcode: Term) -> None:
        """Decode and execute one instruction.

        ``opcode`` is an ``instr_bytes * 8``-wide term; symbolic bits are
        allowed (Isla's partially-symbolic opcodes, used by the pKVM case
        study for relocation-parametric code).

        The model must advance the PC itself (including for straight-line
        instructions), like the real Sail models do.
        """

    # -- conveniences -----------------------------------------------------------

    def initial_state(self, overrides: dict[str, int] | None = None) -> MachineState:
        """A machine state with every declared register at its reset value."""
        state = MachineState(pc_reg=self.pc_reg)
        for reg, value in self.regfile.reset_values().items():
            state.write_reg(reg, value)
        for name, value in (overrides or {}).items():
            reg = Reg.parse(name)
            if reg not in self.regfile:
                raise KeyError(f"unknown register {name}")
            state.write_reg(reg, value)
        return state

    def step_concrete(
        self, state: MachineState, device=None
    ) -> ConcreteMachine:
        """Fetch and execute one instruction concretely from memory.

        The opcode is fetched from the byte memory at the PC; this is the
        model-level counterpart of the ITL ``step-nil`` instruction fetch.
        """
        machine = ConcreteMachine(self.regfile, state, device)
        pc = state.read_reg(self.pc_reg)
        if pc is None:
            raise ValueError("PC unmapped")
        opcode = state.read_mem(int(pc), self.instr_bytes)
        self.execute(machine, B.bv(opcode, self.instr_bytes * 8))
        return machine

    def run_concrete(
        self,
        state: MachineState,
        max_instructions: int = 10_000,
        device=None,
        stop_pcs: set[int] | None = None,
    ):
        """Run the concrete model until PC leaves mapped memory, hits a stop
        address, or the fuel runs out.  Returns (labels, instruction count).
        """
        labels = []
        executed = 0
        stop_pcs = stop_pcs or set()
        while executed < max_instructions:
            pc = int(state.read_reg(self.pc_reg))
            if pc in stop_pcs or not state.mem_mapped(pc, self.instr_bytes):
                break
            machine = self.step_concrete(state, device)
            labels.extend(machine.labels)
            executed += 1
        return labels, executed
