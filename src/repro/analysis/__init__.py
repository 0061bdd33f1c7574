"""``repro.analysis`` — static analysis over the ITL/SMT layer.

Three passes plus a lint driver (:mod:`repro.tools.lint`):

- :mod:`repro.analysis.wellformed` — linear-time well-sortedness / SSA
  checker for ITL traces (the judgement §4's operational semantics assumes);
- :mod:`repro.analysis.footprint` — per-opcode static register/memory
  read-write sets, feeding the spec-frame lint;
- :mod:`repro.analysis.framelint` — diffs case-study pre/postconditions
  against inferred footprints (unframed writes are errors, dead spec
  clauses are warnings);
- :mod:`repro.analysis.isaspec` — solver-backed ISA-specification
  validator: encoding overlap and decode coverage proved exhaustively
  over the word space, and the field tables grounded by reassembling
  decoder witnesses (``ISA*`` codes).

Findings share a small severity lattice with stable codes
(:mod:`repro.analysis.findings`).
"""

from importlib import import_module

#: Public name -> the submodule that defines it.  Submodules load on first
#: use: the architectures' encoders import :mod:`repro.analysis.isaspec`
#: while they load, and framelint reads :mod:`repro.logic`, which builds
#: the cosim architectures.
_EXPORTS = {
    **dict.fromkeys((
        "CODE_CATALOG", "ERROR", "INFO", "WARNING", "Finding", "max_severity",
        "merge_findings", "render_findings", "worst_severity",
    ), "findings"),
    **dict.fromkeys((
        "Footprint", "MemRegion", "block_footprints", "footprint_of_trace",
    ), "footprint"),
    **dict.fromkeys(("lint_case", "lint_specs"), "framelint"),
    **dict.fromkeys((
        "ArmSpec", "InvalidRegion", "IsaSpec", "SpecError", "available_archs",
        "isaspec_stats", "load_spec", "validate_arch", "validate_spec",
    ), "isaspec"),
    **dict.fromkeys((
        "WellFormednessError", "assert_wellformed", "check_trace",
        "debug_checks_enabled", "is_wellformed",
    ), "wellformed"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
