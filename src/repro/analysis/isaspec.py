"""ISA-specification validator: the decode/encode tables as a proved artifact.

Islaris's trust story leans on the ISA model being authoritative; this pass
makes our hand-written per-architecture layers *earn* that status statically
instead of hoping a sampled corpus exercises every arm.  Each architecture
contributes a declarative :class:`IsaSpec` (``arch/<name>/spec.py``): per
decode arm an exact *claim* (the set of words the arm accepts) written in a
small constraint language, a coarse *region* (the ISA-manual box the arm
lives in), the arm's one field table, and a list of defined-invalid
carve-outs covering every reserved/unmodelled hole.  The field tables are
the only description of the encodings' bits: the encoders and assemblers
pack every word through them (:mod:`repro.arch.encoding`).  The validator
then proves, with the in-repo SMT core and **no sampling**:

- *overlap* (ISA003): claims are pairwise disjoint over the full word space —
  each pair is either separated by conflicting fixed bits (mask arithmetic,
  still exhaustive) or proved UNSAT; a SAT verdict yields the model as a
  concrete counterexample word.
- *coverage* (ISA004): every 32-bit word is inside some arm's region or some
  defined-invalid carve-out.  The query is sharded on a spec-chosen selector
  field — the shards partition the space, so the proof stays exhaustive while
  each subquery stays trivial.  Holes are reported as witness words.
- *containment* (ISA005): each claim implies its region, so the residual
  ``region ∧ ¬claim`` is exactly the arm's reserved space.

The declarative layer is grounded against the *Python implementations* on
concrete words (ISA007): solver models of each claim must reach the same
arm of the hand-written decoder and survive
``assemble_line(disassemble(w)) == w`` — the assembler packs through the
spec's field table, the disassembler is independent of it, so a misplaced
field cannot round-trip.  Enumerated invalid-space witnesses must raise,
and probe words from the real encoders must satisfy the claim.  Structural
checks (ISA001/ISA010) validate the field tables and the spec's own
clauses.  Every check reports through the shared findings lattice
(:mod:`repro.analysis.findings`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..obs import Counters
from ..smt import builder as B
from ..smt.solver import SAT, UNSAT, Solver
from ..smt.terms import FALSE, TRUE, Term
from .findings import CODE_CATALOG, Finding

__all__ = [
    "ArmSpec",
    "InvalidRegion",
    "IsaSpec",
    "Raw",
    "SpecError",
    "isaspec_stats",
    "validate_spec",
]


class SpecError(Exception):
    """A constraint clause or spec table is structurally malformed."""


@dataclass(frozen=True)
class Raw:
    """Escape hatch: an arbitrary word-level predicate.

    ``build`` maps the 32-bit word term to a Bool term; ``name`` appears in
    diagnostics.  Concrete evaluation substitutes a literal word, so the
    predicate must fold to TRUE/FALSE on constants (all smart-constructor
    built terms do).
    """

    name: str
    build: Callable = field(compare=False)


@dataclass(frozen=True)
class ArmSpec:
    """One decode arm: an exact claim inside a coarse region.

    ``match`` clauses (ANDed) are the exact word set the Python decoder arm
    accepts; ``region`` is the ISA-manual box containing it (claims must not
    escape it — ISA005); ``region ∧ ¬match`` is implicitly defined-invalid
    for coverage.  ``fields`` is the arm's one field table: ``(name, hi,
    lo)`` tuples tiling the word MSB-first (ISA001); the bits the claim
    fixes need no operand.
    """

    name: str
    match: tuple
    region: tuple = ()
    fields: tuple = ()


@dataclass(frozen=True)
class InvalidRegion:
    """A hand-authored defined-invalid carve-out (reserved/unmodelled space)."""

    name: str
    clauses: tuple


@dataclass(frozen=True)
class IsaSpec:
    """A whole architecture as a checkable specification."""

    arch: str
    arms: tuple
    invalid: tuple
    #: ``decode_arm(word) -> str`` from the real decoder; must raise on
    #: invalid words (exception type in ``invalid_exc``).
    decode_arm: Callable
    invalid_exc: type
    #: The real disassembler and assembler: every claimed witness must
    #: survive ``assemble_line(disassemble(word)) == word``.
    disassemble: Callable
    assemble_line: Callable
    #: arm name -> concrete words from the *real* encoder (grounding probes).
    probes: dict
    #: (hi, lo) selector used to shard the coverage proof; shards enumerate
    #: every value of the field, partitioning the word space.
    coverage_shard: tuple | None = None
    word_width: int = 32


# ---------------------------------------------------------------------------
# Stats (daemon /metrics surface)
# ---------------------------------------------------------------------------


#: Process-global counters; the service daemon surfaces these at /metrics.
#: Each increment is also counted in the current run scope as ``isaspec.*``.
ISASPEC_STATS = Counters(scoped_as="isaspec.")


def isaspec_stats() -> dict[str, int]:
    return ISASPEC_STATS.snapshot()


# ---------------------------------------------------------------------------
# Constraint language -> terms
# ---------------------------------------------------------------------------

_FIELD_OPS = {"eq", "ne", "in", "notin", "lt", "ge"}


def _check_range(hi: int, lo: int, width: int, clause) -> int:
    if not (isinstance(hi, int) and isinstance(lo, int)):
        raise SpecError(f"non-integer bit range in clause {clause!r}")
    if not 0 <= lo <= hi < width:
        raise SpecError(f"bit range [{hi}:{lo}] out of word range in {clause!r}")
    return hi - lo + 1


def _check_value(value: int, bits: int, clause) -> int:
    if not isinstance(value, int) or not 0 <= value < (1 << bits):
        raise SpecError(f"value {value!r} does not fit [{bits} bits] in {clause!r}")
    return value


def compile_clause(clause, word: Term, width: int = 32) -> Term:
    """One clause of the constraint mini-language as a Bool term over ``word``.

    Clauses are tuples ``(op, hi, lo, ...)`` with ``op`` one of ``eq``,
    ``ne``, ``in``, ``notin``, ``lt`` (unsigned), ``ge``, the connectives
    ``("and", *cs)`` / ``("or", *cs)`` / ``("not", c)``, or a :class:`Raw`.
    Raises :class:`SpecError` on malformed clauses (surfaced as ISA010).
    """
    if isinstance(clause, Raw):
        built = clause.build(word)
        if not isinstance(built, Term) or not built.sort.is_bool():
            raise SpecError(f"raw clause {clause.name!r} did not build a Bool term")
        return built
    if not isinstance(clause, tuple) or not clause:
        raise SpecError(f"clause {clause!r} is not a non-empty tuple")
    op = clause[0]
    if op in ("and", "or"):
        if len(clause) < 2:
            raise SpecError(f"empty connective {clause!r}")
        parts = [compile_clause(c, word, width) for c in clause[1:]]
        return B.and_(*parts) if op == "and" else B.or_(*parts)
    if op == "not":
        if len(clause) != 2:
            raise SpecError(f"'not' takes one clause: {clause!r}")
        return B.not_(compile_clause(clause[1], word, width))
    if op not in _FIELD_OPS:
        raise SpecError(f"unknown clause op {op!r} in {clause!r}")
    if len(clause) != 4:
        raise SpecError(f"field clause needs (op, hi, lo, value): {clause!r}")
    _, hi, lo, value = clause
    bits = _check_range(hi, lo, width, clause)
    fld = B.extract(hi, lo, word)
    if op in ("in", "notin"):
        if not isinstance(value, tuple) or not value:
            raise SpecError(f"'{op}' needs a non-empty value tuple: {clause!r}")
        disjuncts = [
            B.eq(fld, B.bv(_check_value(v, bits, clause), bits)) for v in value
        ]
        result = B.or_(*disjuncts)
        return result if op == "in" else B.not_(result)
    value = _check_value(value, bits, clause)
    if op == "eq":
        return B.eq(fld, B.bv(value, bits))
    if op == "ne":
        return B.not_(B.eq(fld, B.bv(value, bits)))
    if op == "lt":
        return B.bvult(fld, B.bv(value, bits))
    return B.bvuge(fld, B.bv(value, bits))  # "ge"


def compile_clauses(clauses, word: Term, width: int = 32) -> Term:
    """The conjunction of ``clauses`` (TRUE when empty)."""
    return B.and_(*[compile_clause(c, word, width) for c in clauses])


def eval_clauses(clauses, value: int, width: int = 32) -> bool:
    """Evaluate a clause list on a concrete word (pure constant folding)."""
    term = compile_clauses(clauses, B.bv(value, width), width)
    if term is TRUE:
        return True
    if term is FALSE:
        return False
    raise SpecError(f"clauses did not fold on concrete word {value:#x}")


def fixed_bits_of(clauses, width: int = 32) -> tuple[int, int]:
    """``(mask, value)`` of the bits any satisfying word must have.

    Only top-level ``eq`` clauses (and singleton ``in``) contribute; this is
    a sound under-approximation used to discharge overlap pairs by mask
    arithmetic before touching the solver.
    """
    mask = 0
    value = 0
    for clause in clauses:
        if isinstance(clause, Raw) or not isinstance(clause, tuple) or not clause:
            continue
        op = clause[0]
        if op == "eq":
            _, hi, lo, v = clause
        elif op == "in" and len(clause) == 4 and len(clause[3]) == 1:
            _, hi, lo, vs = clause
            v = vs[0]
        else:
            continue
        fmask = ((1 << (hi - lo + 1)) - 1) << lo
        mask |= fmask
        value |= (v << lo) & fmask
    return mask, value


# ---------------------------------------------------------------------------
# The validator
# ---------------------------------------------------------------------------


def _finding(code: str, message: str, where: str, **detail) -> Finding:
    severity, _ = CODE_CATALOG[code]
    return Finding(code=code, severity=severity, message=message, where=where,
                   detail=detail)


class _Validator:
    def __init__(self, spec: IsaSpec, witnesses: int = 3):
        self.spec = spec
        self.witnesses = witnesses
        self.solver = Solver()
        self.word = B.bv_var(f"isa_w_{spec.arch}", spec.word_width)
        self.findings: list[Finding] = []
        # Compiled claim/region terms per arm (skipping ISA010-broken arms).
        self.claims: dict[str, Term] = {}
        self.regions: dict[str, Term] = {}
        # Arms whose field table tiles the word (ISA001-clean).
        self.tiled: set[str] = set()

    # -- plumbing ---------------------------------------------------------

    def emit(self, code: str, message: str, where: str,
             severity: str | None = None, **detail) -> None:
        finding = _finding(code, message, where, **detail)
        if severity is not None:
            finding = Finding(code=finding.code, severity=severity,
                              message=finding.message, where=finding.where,
                              detail=finding.detail)
        self.findings.append(finding)
        ISASPEC_STATS.inc(f"findings_{finding.severity}")

    def _check(self, *terms: Term) -> str:
        ISASPEC_STATS.inc("solver_checks")
        return self.solver.check(*terms)

    def _model_word(self) -> int:
        model = self.solver.model()
        value = model.get(self.word, 0)
        return int(value)

    def _enumerate(self, constraint: Term, count: int) -> list[int]:
        """Up to ``count`` distinct concrete words satisfying ``constraint``."""
        words: list[int] = []
        blockers: list[Term] = []
        for _ in range(count):
            if self._check(constraint, *blockers) != SAT:
                break
            w = self._model_word()
            words.append(w)
            blockers.append(B.not_(B.eq(self.word, B.bv(w, self.spec.word_width))))
        return words

    # -- structural checks ------------------------------------------------

    def check_fields(self) -> None:
        width = self.spec.word_width
        for arm in self.spec.arms:
            where = f"{arm.name}.fields"
            names = [name for name, _, _ in arm.fields]
            if len(set(names)) != len(names):
                self.emit("ISA001", "field names repeat", where)
                continue
            expect_hi = width - 1
            for name, hi, lo in arm.fields:
                if not 0 <= lo <= hi < width:
                    self.emit("ISA001", f"field {name} [{hi}:{lo}] out of word range", where)
                    break
                if hi != expect_hi:
                    gap_or_overlap = "overlaps" if hi > expect_hi else "leaves a gap above"
                    self.emit(
                        "ISA001",
                        f"field {name} [{hi}:{lo}] {gap_or_overlap} bit {expect_hi}",
                        where, field=name,
                    )
                    break
                expect_hi = lo - 1
            else:
                if expect_hi != -1:
                    self.emit(
                        "ISA001",
                        f"fields stop at bit {expect_hi + 1}; word not tiled",
                        where,
                    )
                else:
                    self.tiled.add(arm.name)

    # -- claim compilation ------------------------------------------------

    def compile_arms(self) -> None:
        for arm in self.spec.arms:
            try:
                claim = compile_clauses(arm.match, self.word, self.spec.word_width)
                region = compile_clauses(arm.region, self.word, self.spec.word_width)
            except SpecError as exc:
                self.emit("ISA010", str(exc), arm.name)
                continue
            self.claims[arm.name] = claim
            # An arm with no declared region contributes its exact claim to
            # coverage (and has no residual invalid space).
            self.regions[arm.name] = region if arm.region else claim
            ISASPEC_STATS.inc("arms_checked")

    # -- solver-proved checks ---------------------------------------------

    def check_overlap(self) -> None:
        arms = [a for a in self.spec.arms if a.name in self.claims]
        fixed = {a.name: fixed_bits_of(a.match, self.spec.word_width) for a in arms}
        for i, a in enumerate(arms):
            for b in arms[i + 1:]:
                mask_a, val_a = fixed[a.name]
                mask_b, val_b = fixed[b.name]
                common = mask_a & mask_b
                if (val_a ^ val_b) & common:
                    # Conflicting fixed bits: disjoint by arithmetic, and the
                    # argument covers the entire word space.
                    ISASPEC_STATS.inc("overlap_pairs_pruned")
                    continue
                verdict = self._check(self.claims[a.name], self.claims[b.name])
                if verdict == UNSAT:
                    ISASPEC_STATS.inc("overlap_pairs_proved")
                elif verdict == SAT:
                    w = self._model_word()
                    self.emit(
                        "ISA003",
                        f"arms {a.name} and {b.name} both claim {w:#010x}",
                        f"{a.name}*{b.name}", counterexample=w,
                    )
                else:
                    self.emit(
                        "ISA003",
                        f"solver could not decide overlap of {a.name}/{b.name}",
                        f"{a.name}*{b.name}", verdict=verdict,
                    )

    def check_containment(self) -> None:
        for arm in self.spec.arms:
            claim = self.claims.get(arm.name)
            if claim is None or not arm.region:
                continue
            region = self.regions[arm.name]
            verdict = self._check(claim, B.not_(region))
            if verdict == SAT:
                w = self._model_word()
                self.emit(
                    "ISA005",
                    f"arm {arm.name} claims {w:#010x} outside its region",
                    arm.name, counterexample=w,
                )
            elif verdict != UNSAT:
                self.emit(
                    "ISA005",
                    f"solver could not decide containment for {arm.name}",
                    arm.name, verdict=verdict,
                )

    def _covered_term(self) -> Term:
        parts = [self.regions[a.name] for a in self.spec.arms
                 if a.name in self.regions]
        for inv in self.spec.invalid:
            try:
                parts.append(
                    compile_clauses(inv.clauses, self.word, self.spec.word_width)
                )
            except SpecError as exc:
                self.emit("ISA010", str(exc), f"invalid:{inv.name}")
        return B.or_(*parts)

    def check_coverage(self) -> None:
        covered = self._covered_term()
        hole = B.not_(covered)
        shard = self.spec.coverage_shard
        if shard is None:
            shards: list[Term] = [TRUE]
        else:
            hi, lo = shard
            bits = hi - lo + 1
            fld = B.extract(hi, lo, self.word)
            shards = [B.eq(fld, B.bv(v, bits)) for v in range(1 << bits)]
        for idx, selector in enumerate(shards):
            verdict = self._check(hole, selector)
            if verdict == UNSAT:
                ISASPEC_STATS.inc("coverage_shards_proved")
                continue
            if verdict == SAT:
                w = self._model_word()
                self.emit(
                    "ISA004",
                    f"word {w:#010x} is neither claimed nor defined-invalid",
                    f"coverage[{idx}]", witness=w,
                )
            else:
                self.emit(
                    "ISA004",
                    f"solver could not decide coverage shard {idx}",
                    f"coverage[{idx}]", verdict=verdict,
                )

    def check_invalid_disjoint(self) -> None:
        """Hand carve-outs must not swallow claimed words (ISA008).

        Arm *residuals* (``region ∧ ¬claim``) are disjoint from their own
        claim by construction and may overlap other carve-outs freely; only
        the explicit invalid list is checked against every claim.
        """
        for inv in self.spec.invalid:
            try:
                carve = compile_clauses(inv.clauses, self.word, self.spec.word_width)
            except SpecError:
                continue  # reported as ISA010 elsewhere
            carve_mask, carve_val = fixed_bits_of(inv.clauses, self.spec.word_width)
            for arm in self.spec.arms:
                claim = self.claims.get(arm.name)
                if claim is None:
                    continue
                mask, val = fixed_bits_of(arm.match, self.spec.word_width)
                common = mask & carve_mask
                if (val ^ carve_val) & common:
                    ISASPEC_STATS.inc("overlap_pairs_pruned")
                    continue
                verdict = self._check(carve, claim)
                if verdict == SAT:
                    w = self._model_word()
                    self.emit(
                        "ISA008",
                        f"defined-invalid {inv.name} overlaps {arm.name}'s"
                        f" claim at {w:#010x}",
                        f"invalid:{inv.name}*{arm.name}", counterexample=w,
                    )
                elif verdict != UNSAT:
                    self.emit(
                        "ISA008",
                        f"solver could not decide {inv.name} vs {arm.name}",
                        f"invalid:{inv.name}*{arm.name}", verdict=verdict,
                    )

    # -- grounding against the Python implementations ---------------------

    def _distinct_fields(self, arm: ArmSpec) -> Term:
        """Every two equal-width fields the claim leaves free differ.

        A witness meeting this tells swapped fields apart, so a table that
        places one operand in another's bits cannot round-trip.
        """
        mask, _ = fixed_bits_of(arm.match, self.spec.word_width)
        free = [
            (hi, lo) for _, hi, lo in arm.fields
            if hi > lo and (((1 << (hi - lo + 1)) - 1) << lo) & ~mask
        ]
        return B.and_(*[
            B.not_(B.eq(B.extract(*a, self.word), B.extract(*b, self.word)))
            for i, a in enumerate(free) for b in free[i + 1:]
            if a[0] - a[1] == b[0] - b[1]
        ])

    def _roundtrip(self, arm: ArmSpec, w: int) -> None:
        spec = self.spec
        try:
            text = spec.disassemble(w)
            back = spec.assemble_line(text)
        except Exception as exc:  # any failure to reassemble is the finding
            self.emit(
                "ISA007",
                f"{arm.name} witness {w:#010x} does not reassemble: {exc}",
                arm.name, witness=w,
            )
            return
        if back != w:
            differ = [
                name for name, hi, lo in arm.fields
                if (w ^ back) >> lo & ((1 << (hi - lo + 1)) - 1)
            ]
            self.emit(
                "ISA007",
                f"{arm.name} witness {w:#010x} ({text!r}) reassembles to"
                f" {back:#010x}; fields {', '.join(differ)} differ",
                arm.name, witness=w,
            )

    def check_witnesses(self) -> None:
        spec = self.spec
        for arm in spec.arms:
            claim = self.claims.get(arm.name)
            if claim is None:
                continue
            tiled = arm.name in self.tiled
            words = []
            if tiled:
                words = self._enumerate(
                    B.and_(claim, self._distinct_fields(arm)), 1
                )
            words += [w for w in self._enumerate(claim, self.witnesses)
                      if w not in words]
            for w in words:
                ISASPEC_STATS.inc("witnesses_checked")
                try:
                    got = spec.decode_arm(w)
                except spec.invalid_exc:
                    self.emit(
                        "ISA007",
                        f"spec claims {w:#010x} for {arm.name}; decoder rejects it",
                        arm.name, witness=w,
                    )
                    continue
                if got != arm.name:
                    self.emit(
                        "ISA007",
                        f"spec claims {w:#010x} for {arm.name}; decoder says {got}",
                        arm.name, witness=w,
                    )
                    continue
                if tiled:  # a broken table is reported as ISA001
                    self._roundtrip(arm, w)
        # Invalid space: enumerated witnesses must be rejected.  The space is
        # each arm's residual (region ∧ ¬claim) plus the hand carve-outs,
        # minus every claim (a residual word may legitimately belong to a
        # *different* arm).
        any_claim = B.or_(*self.claims.values())
        residuals = [
            (f"residual:{arm.name}",
             B.and_(self.regions[arm.name], B.not_(self.claims[arm.name])))
            for arm in spec.arms
            if arm.name in self.claims and arm.region
        ]
        carves = []
        for inv in spec.invalid:
            try:
                carves.append(
                    (f"invalid:{inv.name}",
                     compile_clauses(inv.clauses, self.word, spec.word_width))
                )
            except SpecError:
                continue  # already reported as ISA010 during coverage
        for label, term in residuals + carves:
            constraint = B.and_(term, B.not_(any_claim))
            for w in self._enumerate(constraint, 2):
                ISASPEC_STATS.inc("witnesses_checked")
                try:
                    got = spec.decode_arm(w)
                except spec.invalid_exc:
                    continue
                self.emit(
                    "ISA007",
                    f"{w:#010x} is defined-invalid ({label}) but the decoder"
                    f" claims it as {got}", label, witness=w,
                )

    def check_probes(self) -> None:
        spec = self.spec
        for arm_name, words in sorted(spec.probes.items()):
            arm = next((a for a in spec.arms if a.name == arm_name), None)
            if arm is None:
                self.emit(
                    "ISA007", f"probe arm {arm_name} not in the spec", arm_name,
                )
                continue
            for w in words:
                ISASPEC_STATS.inc("probes_checked")
                try:
                    claimed = eval_clauses(arm.match, w, spec.word_width)
                except SpecError as exc:
                    self.emit("ISA010", str(exc), arm_name)
                    break
                if not claimed:
                    self.emit(
                        "ISA007",
                        f"encoder word {w:#010x} is outside {arm_name}'s claim",
                        arm_name, witness=w,
                    )

    # -- driver -----------------------------------------------------------

    def run(self) -> list[Finding]:
        ISASPEC_STATS.inc("specs_validated")
        self.check_fields()
        self.compile_arms()
        self.check_overlap()
        self.check_containment()
        self.check_coverage()
        self.check_invalid_disjoint()
        self.check_witnesses()
        self.check_probes()
        return self.findings


def validate_spec(spec: IsaSpec, witnesses: int = 3) -> list[Finding]:
    """Run every ISA-spec check over ``spec``; returns the findings.

    The overlap and coverage results are exhaustive over the full word
    space: pairs are discharged by fixed-bit arithmetic or UNSAT proofs,
    and coverage shards partition all ``2**word_width`` words.
    """
    return _Validator(spec, witnesses=witnesses).run()


def available_archs() -> tuple[str, ...]:
    from ..arch import registry

    return registry.names()


def load_spec(arch: str) -> IsaSpec:
    """The declarative :class:`IsaSpec` for a registered architecture."""
    from ..arch import registry

    try:
        info = registry.get(arch)
    except KeyError:
        raise SpecError(f"no ISA spec for architecture {arch!r}") from None
    return info.spec()


def validate_arch(arch: str, witnesses: int = 3) -> list[Finding]:
    """Load and validate one architecture's spec."""
    return validate_spec(load_spec(arch), witnesses=witnesses)
