"""Findings: the shared result type of every static-analysis pass.

Severities form a three-point lattice ``error > warning > info``; a pass
may only *raise* the severity of a situation it understands better, never
silently lower it.  Codes are stable identifiers (``WF*`` well-formedness,
``FP*`` footprint, ``FL*`` frame lint) that tests, the mutation-detection
suite, and downstream tooling match on — change a code's meaning, mint a
new code.

The full catalog lives in :data:`CODE_CATALOG`; the table below is its
rendered form.  Uniqueness is enforced at import time — two passes can
never mint the same code.

===== ======== ==================================================
code  severity meaning
===== ======== ==================================================
WF001 error    ill-sorted SMT term (width/sort mismatch in the DAG)
WF002 error    variable used before its definition (SSA violation)
WF003 error    variable defined twice (SSA violation)
WF004 error    register event width differs from the declaration
WF005 error    memory event data width differs from ``8 * size``
WF006 error    ``Assert``/``Assume`` body is not Bool
WF007 error    ``DeclareConst``/``DefineConst`` var/expr sort mismatch
WF008 error    memory address is not a bitvector
WF009 error    undeclared external variable (strict mode only)
FP001 info     memory access with no base-register ± offset shape
FL001 error    instruction writes a register no spec mentions
FL002 warning  spec constrains a register outside the footprint
ISA001 error   arm field table malformed (overlap / gap / range)
ISA003 error   two decode arms claim the same word (encoding overlap)
ISA004 error   decode-coverage hole: word neither claimed nor invalid
ISA005 error   arm claims a word outside its declared region
ISA007 error   spec and implementation disagree on a witness word
ISA008 error   defined-invalid space overlaps an arm's claim
ISA010 error   malformed constraint clause in the ISA spec itself
===== ======== ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)

#: Lattice rank; higher is more severe.
_RANK = {ERROR: 2, WARNING: 1, INFO: 0}

#: Every stable finding code with its default severity and one-line meaning.
#: Passes look their codes up here instead of re-declaring them; the builder
#: below guarantees no two checks share a code.
_CATALOG_ENTRIES = (
    ("WF001", ERROR, "ill-sorted SMT term (width/sort mismatch in the DAG)"),
    ("WF002", ERROR, "variable used before its definition (SSA violation)"),
    ("WF003", ERROR, "variable defined twice (SSA violation)"),
    ("WF004", ERROR, "register event width differs from the declaration"),
    ("WF005", ERROR, "memory event data width differs from 8 * size"),
    ("WF006", ERROR, "Assert/Assume body is not Bool"),
    ("WF007", ERROR, "DeclareConst/DefineConst var/expr sort mismatch"),
    ("WF008", ERROR, "memory address is not a bitvector"),
    ("WF009", ERROR, "undeclared external variable (strict mode only)"),
    ("FP001", INFO, "memory access with no base-register ± offset shape"),
    ("FL001", ERROR, "instruction writes a register no spec mentions"),
    ("FL002", WARNING, "spec constrains a register outside the footprint"),
    ("ISA001", ERROR, "arm field table malformed (overlap / gap / range)"),
    # ISA002 (register field width; field kinds are gone) is not reused.
    ("ISA003", ERROR, "two decode arms claim the same word (encoding overlap)"),
    ("ISA004", ERROR, "decode-coverage hole: word neither claimed nor invalid"),
    ("ISA005", ERROR, "arm claims a word outside its declared region"),
    # ISA006 (encoder/decoder table agreement; one table is left, and
    # ISA007's reassembly round trip grounds it) is not reused.
    ("ISA007", ERROR, "spec and implementation disagree on a witness word"),
    ("ISA008", ERROR, "defined-invalid space overlaps an arm's claim"),
    # ISA009 (the retired parametric-family audit) is not reused.
    ("ISA010", ERROR, "malformed constraint clause in the ISA spec itself"),
    # ISA011 (encoder packing tiling; merged into ISA001) is not reused.
)


def _build_catalog() -> dict:
    catalog: dict[str, tuple[str, str]] = {}
    for code, severity, meaning in _CATALOG_ENTRIES:
        if code in catalog:
            raise ValueError(f"finding code {code} registered twice")
        if severity not in _RANK:
            raise ValueError(f"finding code {code} has unknown severity {severity!r}")
        catalog[code] = (severity, meaning)
    return catalog


#: code -> (default severity, one-line meaning).  Import-time uniqueness.
CODE_CATALOG = _build_catalog()


def max_severity(*severities: str) -> str:
    """The join (most severe) of the given severities (``info`` if none)."""
    result = INFO
    for severity in severities:
        if severity not in _RANK:
            raise ValueError(f"unknown severity {severity!r}")
        if _RANK[severity] > _RANK[result]:
            result = severity
    return result


def worst_severity(findings) -> str | None:
    """The most severe severity among ``findings`` (``None`` when empty)."""
    severities = [f.severity for f in findings]
    return max_severity(*severities) if severities else None


@dataclass(frozen=True)
class Finding:
    """One static-analysis diagnostic.

    ``where`` is a free-form location (pass-dependent): an event index path
    like ``events[3]`` or ``cases[1].events[0]``, a register name, etc.
    ``case``/``addr`` identify the case study and instruction address when
    the pass runs over a shipped program (``None`` for bare traces).
    """

    code: str
    severity: str
    message: str
    where: str = ""
    case: str | None = None
    addr: int | None = None
    detail: dict = field(default_factory=dict, compare=False)

    def render(self) -> str:
        place = []
        if self.case is not None:
            place.append(self.case)
        if self.addr is not None:
            place.append(f"0x{self.addr:x}")
        if self.where:
            place.append(self.where)
        location = ":".join(place)
        prefix = f"{location}: " if location else ""
        return f"{prefix}{self.severity} [{self.code}] {self.message}"

    def to_json(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "where": self.where,
        }
        if self.case is not None:
            out["case"] = self.case
        if self.addr is not None:
            out["addr"] = self.addr
        if self.detail:
            out["detail"] = self.detail
        return out


def _sort_key(f: Finding):
    """Total order over distinct findings: most severe first, then every
    compare-participating field.  ``None`` sorts before a present value so
    ``case=None`` / ``addr=None`` never tie with ``case=""`` / ``addr=0``;
    with ``message`` included, findings that compare unequal never share a
    key, so sorting is insensitive to arrival order.
    """
    return (
        -_RANK[f.severity],
        f.code,
        f.case is not None,
        f.case or "",
        f.addr is not None,
        f.addr or 0,
        f.where,
        f.message,
    )


def merge_findings(*groups) -> list:
    """Merge findings from several workers into one deduplicated list.

    Order-insensitive: equal findings (``detail`` excluded — it does not
    participate in equality) collapse to one, and the sort key covers every
    compare-participating field (severity, code, case, addr, where,
    message), so any shard-to-worker assignment yields the same report.
    """
    seen = set()
    merged = []
    for group in groups:
        for finding in group:
            if finding in seen:
                continue
            seen.add(finding)
            merged.append(finding)
    merged.sort(key=_sort_key)
    return merged


def render_findings(findings) -> str:
    """Human-readable multi-line rendering, most severe first."""
    return "\n".join(f.render() for f in sorted(findings, key=_sort_key))
