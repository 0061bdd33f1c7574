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
  validator: encoding overlap, decode coverage, and encoder/decoder
  agreement proved exhaustively over the word space (``ISA*`` codes).

Findings share a small severity lattice with stable codes
(:mod:`repro.analysis.findings`).
"""

from .findings import (
    CODE_CATALOG,
    ERROR,
    INFO,
    WARNING,
    Finding,
    max_severity,
    merge_findings,
    render_findings,
    worst_severity,
)
from .footprint import (
    Footprint,
    MemRegion,
    block_footprints,
    footprint_of_trace,
)
from .framelint import lint_case, lint_specs
from .isaspec import (
    ArmSpec,
    EncoderSpec,
    InvalidRegion,
    IsaSpec,
    SpecError,
    available_archs,
    isaspec_stats,
    load_spec,
    validate_arch,
    validate_spec,
)
from .wellformed import (
    WellFormednessError,
    assert_wellformed,
    check_trace,
    debug_checks_enabled,
    is_wellformed,
)

__all__ = [
    "CODE_CATALOG",
    "ERROR",
    "INFO",
    "WARNING",
    "ArmSpec",
    "EncoderSpec",
    "Finding",
    "Footprint",
    "InvalidRegion",
    "IsaSpec",
    "MemRegion",
    "SpecError",
    "WellFormednessError",
    "assert_wellformed",
    "available_archs",
    "block_footprints",
    "check_trace",
    "debug_checks_enabled",
    "footprint_of_trace",
    "is_wellformed",
    "isaspec_stats",
    "lint_case",
    "lint_specs",
    "load_spec",
    "max_severity",
    "merge_findings",
    "render_findings",
    "validate_arch",
    "validate_spec",
    "worst_severity",
]
