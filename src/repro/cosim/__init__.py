"""``repro.cosim`` — the differential-testing rig.

Follows the state-comparison idiom of symbolic-execution validation
against formal ISA semantics (Tempel et al.): an oracle and the concrete
ITL operational semantics (the authoritative side) run from the same
start state and are diffed after every instruction.  There are two
oracles: a *fast direct interpreter* per architecture, stepped in
lockstep over generated programs by :class:`CoSimDriver`, and the
mini-Sail model, which the conformance suite runs on one-word cases
through :func:`repro.validation.simulate_state`.  Both use one case
format, state generator, comparator, shrinker and corpus entry shape.

Trust story (see DESIGN.md): the fast interpreter is an **oracle
cross-check, not a trusted component**.  A divergence means one of the
two executors is wrong; the shrinker minimises the witness and the
reproducer lands in the conformance corpus.  Nothing the interpreter
computes ever enters a proof.
"""

from .archs import COSIM_ARCHS, CosimArch
from .driver import BatchReport, CoSimDriver, Divergence, run_service_batch
from .generate import CoverageMap, ProgramGenerator, GeneratedProgram
from .interp import (
    ArmInterp,
    CosimDomainError,
    CosimUnsupported,
    DEFECTS,
    RiscvInterp,
    interp_for,
)
from .state import diff_states

__all__ = [
    "ArmInterp", "BatchReport", "COSIM_ARCHS", "CoSimDriver", "CosimArch",
    "CosimDomainError", "CosimUnsupported", "CoverageMap", "DEFECTS",
    "Divergence", "GeneratedProgram", "ProgramGenerator", "RiscvInterp",
    "diff_states", "interp_for", "run_service_batch",
]
