"""``repro.logic`` — the Islaris separation logic and proof automation."""

from .assertions import (
    InstrPre,
    MemArray,
    MemPointsTo,
    MMIO,
    Pred,
    PredBuilder,
    RegCol,
    RegPointsTo,
    SpecAssertion,
)
from .automation import EngineConfig, ProofEngine, verify_program
from .context import Context, ProofError
from .proof import Proof, ProofStep, SideCondition
from .spec import (
    LabelSpec,
    SAnything,
    SChoice,
    SRead,
    SRec,
    SStop,
    SWrite,
    spec_allows,
)

__all__ = [
    "Context", "EngineConfig", "InstrPre", "LabelSpec", "MMIO", "MemArray",
    "MemPointsTo", "Pred", "PredBuilder", "Proof", "ProofEngine",
    "ProofError", "ProofStep", "RegCol", "RegPointsTo", "SAnything",
    "SChoice", "SideCondition", "SpecAssertion", "SRead", "SRec", "SStop",
    "SWrite", "spec_allows", "verify_program",
]
