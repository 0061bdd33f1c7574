"""``repro.logic`` — the Islaris separation logic and proof automation."""

from importlib import import_module

#: Public name -> the submodule that defines it.  Submodules load on first
#: use, so the independent checker (:mod:`repro.logic.checker`) loads
#: without the automation, the proof context and the assertion language.
_EXPORTS = {
    **dict.fromkeys((
        "InstrPre", "MMIO", "MemArray", "MemPointsTo", "Pred", "PredBuilder",
        "RegCol", "RegPointsTo", "SpecAssertion",
    ), "assertions"),
    **dict.fromkeys(("EngineConfig", "ProofEngine", "verify_program"), "automation"),
    **dict.fromkeys(("Context", "ProofError"), "context"),
    **dict.fromkeys(("Proof", "ProofStep", "SideCondition"), "proof"),
    **dict.fromkeys((
        "LabelSpec", "SAnything", "SChoice", "SRead", "SRec", "SStop",
        "SWrite", "spec_allows",
    ), "spec"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
