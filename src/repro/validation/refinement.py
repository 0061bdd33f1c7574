"""Translation validation of Isla traces against the model semantics (§5).

The paper proves, for RISC-V, that each Isla-generated trace is *refined by*
the Coq model generated directly from Sail: ``m ~ t`` per instruction
(Theorem 2), composed into a whole-machine refinement.  This removes Isla
and the SMT solver from the TCB for that example.

Our mini-Sail models play the role of the Sail-generated Coq model: the
authoritative semantics is the *concrete interpreter*
(:class:`repro.sail.concrete.ConcreteMachine`) running the model directly on
machine states, with no Isla and no SMT involved.  The simulation check
``m ~ t`` is:

    for every machine state Σ (drawn from a user-provided state family,
    plus adversarial corner values), running the model concretely on the
    opcode and running the ITL operational semantics on the Isla trace
    from the same Σ yields *identical* final states and identical visible
    labels — and the ITL run never reaches ⊥.

Differences in either direction (register/memory divergence, extra labels,
⊥) are reported as counterexamples.  This is exactly the §5 methodology,
with exhaustive proof replaced by aggressive state enumeration + fuzzing
(the checkable-in-Python rendition; see DESIGN.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..itl.events import Reg
from ..itl.machine import MachineState, diff_states
from ..itl.opsem import Failure, Runner
from ..itl.trace import Trace
from ..sail.concrete import ConcreteMachine
from ..sail.model import IsaModel
from ..smt import builder as B


class RefinementError(Exception):
    """A counterexample to ``m ~ t``: ``detail`` is the first difference
    (a :func:`~repro.itl.machine.diff_states` line) or the ITL ⊥."""

    def __init__(self, opcode: int, detail: str) -> None:
        super().__init__(f"opcode {opcode:#010x}: {detail}")
        self.opcode = opcode
        self.detail = detail


@dataclass
class SimulationReport:
    """Outcome of checking one instruction's trace."""

    opcode: int
    states_checked: int = 0

    def __str__(self) -> str:
        return f"opcode {self.opcode:#010x}: {self.states_checked} states simulated"


@dataclass
class StateFamily:
    """How to generate machine states for an instruction's simulation check.

    ``fixed`` register values are applied to every state (the trace's
    assumptions — e.g. PSTATE.EL — must hold, like the paper's use of the
    Assume/AssumeReg facts when proving refinement).  ``vary`` registers get
    random and corner values.  ``mem`` maps address ranges to be backed.
    """

    fixed: dict[str, int] = field(default_factory=dict)
    vary: list[str] = field(default_factory=list)
    mem_ranges: list[tuple[int, int]] = field(default_factory=list)  # (base, len)
    pc: int = 0x1000

    CORNERS = [0, 1, 2, 0x7F, 0x80, 0xFF, 0xFFFF_FFFF, 1 << 63, (1 << 64) - 1]

    def states(self, model: IsaModel, opcode: int, rng: random.Random, samples: int):
        for i in range(samples):
            state = model.initial_state()
            state.write_reg(model.pc_reg, self.pc)
            for name, value in self.fixed.items():
                state.write_reg(Reg.parse(name), value)
            for name in self.vary:
                reg = Reg.parse(name)
                width = model.regfile.width_of(reg)
                if i < len(self.CORNERS):
                    value = self.CORNERS[i] & ((1 << width) - 1)
                else:
                    value = rng.getrandbits(width)
                state.write_reg(reg, value)
            for base, length in self.mem_ranges:
                for off in range(length):
                    state.write_mem(base + off, rng.getrandbits(8), 1)
            state.load_bytes(self.pc, opcode.to_bytes(4, "little"))
            yield state


def simulate_instruction(
    model: IsaModel,
    opcode: int,
    trace: Trace,
    family: StateFamily,
    samples: int = 24,
    seed: int = 0,
) -> SimulationReport:
    """Check ``m ~ t`` for one instruction over a family of states."""
    rng = random.Random(seed)
    report = SimulationReport(opcode)
    for state in family.states(model, opcode, rng, samples):
        simulate_state(model, opcode, trace, state)
        report.states_checked += 1
    return report


def simulate_state(model: IsaModel, opcode: int, trace: Trace, state: MachineState):
    """Check ``m ~ t`` from one concrete start state.

    Runs the authoritative model concretely and replays the Isla trace
    through the ITL operational semantics from a copy of the same state;
    raises :class:`RefinementError` on any divergence, naming the first
    line of :func:`~repro.itl.machine.diff_states` (registers in sorted
    order, then memory, then labels).  The conformance suite calls this
    on one-word ``repro.cosim`` cases.
    """
    # Side A: the authoritative model, concretely.
    model_state = state.copy()
    machine = ConcreteMachine(model.regfile, model_state)
    model.execute(machine, B.bv(opcode, model.instr_bytes * 8))

    # Side B: the ITL operational semantics on the Isla trace.
    runner = Runner(state.copy())
    try:
        runner.run_trace(trace)
    except Failure as exc:
        raise RefinementError(
            opcode,
            f"ITL run reached ⊥ ({exc.reason}) from a state satisfying "
            f"the assumptions",
        ) from exc

    diff = diff_states(
        model_state, runner.state, machine.labels, runner.labels,
        a_name="model", b_name="ITL",
    )
    if diff:
        raise RefinementError(opcode, diff[0])


@dataclass
class ValidationResult:
    """Aggregate result of validating a whole program's instruction map."""

    per_instruction: dict[int, SimulationReport] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        return len(self.per_instruction)

    @property
    def total_states(self) -> int:
        return sum(r.states_checked for r in self.per_instruction.values())


def validate_program(
    model: IsaModel,
    opcodes: dict[int, int],
    traces: dict[int, Trace],
    family: StateFamily,
    samples: int = 24,
) -> ValidationResult:
    """Theorem 2 composition: check ``m ~ t`` for every instruction of a
    program (the paper does this for the RISC-V memcpy binary)."""
    result = ValidationResult()
    for addr, opcode in sorted(opcodes.items()):
        trace = traces[addr]
        report = simulate_instruction(model, opcode, trace, family, samples, seed=addr)
        result.per_instruction[addr] = report
    return result
