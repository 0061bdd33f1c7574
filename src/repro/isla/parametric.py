"""Parametric trace summaries: execute instruction *families*, not opcodes.

The hottest pipeline stage is per-opcode symbolic execution — SMT-pruned
from scratch for every distinct instruction word.  But most words in a
program differ only in *operand fields*: ``add x1, x2, #3`` and
``add x5, x6, #700`` run the identical decode arm through the identical
path structure.  This module executes each decode arm **once** with free
operand fields (register indices as canonical placeholders, immediates as
symbolic variables), caches the resulting *parametric* raw trace under a
family key, and instantiates it per concrete opcode by substitution — a
lookup plus a term rewrite instead of a model run.

Certificate parity is the load-bearing invariant: an instantiated trace
must be **term-for-term identical** to what direct symbolic execution of
the concrete opcode would produce, so everything downstream (simplify,
proof engine, certificates) is byte-identical with the optimisation on or
off.  Three mechanisms make that hold:

- *Substitution through smart constructors.*  ``B.substitute`` rebuilds
  every term bottom-up through the same constructors direct execution
  used, so constant folding re-fires exactly as it would have with the
  concrete operand present from the start.
- *Fresh-name renormalisation.*  Direct execution numbers fresh constants
  ``v0, v1, ...`` per path and *elides* defines whose value folds to a
  literal or a variable.  Instantiation replays that discipline over the
  family trace: declares are renumbered, defines whose substituted body
  folds are dropped (their variable mapped to the folded value), and the
  counter is copied per ``Cases`` child — matching the executor's
  per-path, shared-prefix numbering.
- *Register equality classes.*  The family key includes the aliasing
  pattern of register operands (``rd == rn`` vs ``rd != rn``), so the
  one-read-per-register cache behaviour of the executor agrees between
  the family build and the concrete run being imitated.

When any precondition fails — unsupported arm, operand registers that the
assumptions pin, a placeholder colliding with a structurally-accessed
register (``blr x30``), a fork condition that substitution decides — the
engine *falls back* to the direct path, degradation-ladder style.  It is
never an error for parametric execution to decline an opcode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from functools import lru_cache

from .. import obs
from ..analysis.wellformed import maybe_assert_substitution_wellformed
from ..cache.keys import family_trace_key
from ..itl import events as E
from ..itl.trace import Trace
from ..smt import builder as B
from ..smt.slicing import term_vars
from ..smt.solver import SAT, Solver
from ..smt.sorts import bv_sort
from ..smt.terms import Term

#: Prefix of family operand variables.  The ``?`` sigil keeps them in the
#: same namespace as the assumption probe variable — they can never collide
#: with executor-allocated fresh names (``v0``, ``blk3_v7``, ...), and the
#: cache layer stores them as extern variables automatically.
_OPERAND_PREFIX = "?f_"


@dataclass(frozen=True)
class ParametricProfile:
    """How an architecture exposes itself to family execution.

    ``decode_fields`` maps a concrete instruction word to its decode arm
    and structured bit layout (see ``arch.*.decode.decode_fields``);
    ``special_indices`` are register numbers with structural semantics
    (SP/XZR, x0) that can never be renamed; ``canonical_indices`` is the
    pool of placeholder register numbers used when building a family —
    chosen to avoid the special indices *and* any register the models
    touch structurally (the Arm link register).
    """

    arch: str
    decode_fields: Callable
    reg_prefix: str
    special_indices: frozenset
    canonical_indices: tuple


@dataclass(frozen=True)
class _FamilyInfo:
    """Everything derived from one concrete opcode's field decomposition."""

    arm: str
    fields: tuple
    field_summary: str
    #: (field name, hi, lo, class id) for renameable register operands
    reg_fields: tuple
    #: (field name, hi, lo, concrete value) for free immediates
    imm_fields: tuple
    #: class id -> the concrete register index of this opcode
    class_values: tuple
    #: the canonical instruction word the family is built from
    canonical_word: int


@dataclass
class _ServedForm:
    """A pre-simplified family trace the fast path serves by substitution.

    The *base* form is the family raw trace simplified as-is; ``shadows``
    are its numbering pins (see :class:`FamilyEntry`).  *Variant* forms are
    keyed by a fold signature — which defines constant-fold away under
    substitution (``sign_extend`` of a literal immediate, a dead define on
    ``x0``...).  A variant inlines those defines *symbolically*, renumbers
    the survivors compactly, and simplifies once; instances whose folds
    match then serve by plain substitution.  ``fold_checks`` holds each
    operand-dependent define body together with its expected foldedness —
    a serve is refused unless this instance folds the same way, since the
    compact numbering is only correct for that pattern.
    """

    final: Trace
    index: tuple
    shadows: tuple = ()
    fold_checks: tuple = ()
    #: has one served instance passed the final trace judgement?  The
    #: judgement is invariant across a form's instances (identical binding
    #: structure and sorts; instances differ only in literal leaves), so
    #: debug mode checks the first and trusts the rest.
    final_checked: bool = False


#: value-dependent folds can in principle mint one signature per operand
#: value; cap the variant store so such families degrade to the slow path
#: instead of accumulating forms
_MAX_VARIANTS = 4


@dataclass
class FamilyEntry:
    """One parametric family: a raw trace over placeholders + metadata."""

    key: str
    arm: str
    arch: str
    raw: Trace
    #: field name -> the free immediate variable in ``raw``
    operand_vars: dict
    #: class id -> placeholder register base name (``"R0"``, ``"x1"``)
    placeholder_bases: tuple
    #: register bases the trace touches that are *not* placeholders; a
    #: concrete operand landing on one of these would conflate a renameable
    #: read with a structural access, so instantiation must refuse
    fixed_regs: frozenset
    #: does any fork condition (transitively) depend on an operand field?
    operand_dependent: bool
    #: build-time execution metrics (for telemetry, never certificates)
    metrics: dict = field(default_factory=dict)
    #: lazily-built mirror of ``raw`` holding each event's free-variable
    #: set (see :func:`_build_var_index`) — lets instantiation skip the
    #: term walk for events the substitution cannot touch
    var_index: tuple = None
    #: lazily-built simplified family trace (+ var index and numbering-pin
    #: shadows) for the fast serve path: substitution commutes with
    #: simplification when no term folds — see :func:`_fast_instantiate`.
    #: The base form's ``shadows`` are operand-dependent define bodies
    #: present in ``raw`` but dropped from the simplified trace (dead
    #: code); they still pin the fresh-name numbering — a dead define that
    #: *folds* under a substitution would never have been emitted, or
    #: numbered, by direct execution, shifting every later name.
    base_form: _ServedForm = None
    #: fold-signature -> variant served form (see :class:`_ServedForm`)
    variants: dict = field(default_factory=dict)

    def indexed(self) -> tuple:
        if self.var_index is None:
            self.var_index = _build_var_index(self.raw)
        return self.var_index

    def served_form(self) -> _ServedForm:
        if self.base_form is None:
            from .footprint import simplify_trace

            final = simplify_trace(self.raw)
            # publish fully built: other threads read the attribute first
            self.base_form = _ServedForm(
                final=final,
                index=_build_var_index(final),
                shadows=_shadow_define_exprs(
                    self.raw, final, frozenset(self.operand_vars.values())
                ),
            )
        return self.base_form


def _count(name: str) -> None:
    """Count in the current run scope (:mod:`repro.obs`) as ``parametric.*``."""
    obs.count("parametric." + name)


@lru_cache(maxsize=4096)
def _metric_suffix(arch: str, arm: str) -> str:
    return f"{arch}_{arm}".replace("-", "_").replace(".", "_")


#: distinguishes "memoized as None" from "not memoized" in ``_info_memo``
_UNMEMOIZED = object()


class ParametricEngine:
    """Process-global family store + dispatcher.

    Thread-safe for the daemon's runner threads; worker processes each get
    their own engine (families re-derive from the shared disk tier).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, FamilyEntry] = {}
        #: keys whose family build failed *deterministically* — never retried
        self._unsupported: set[str] = set()
        #: decoded-word memo: ``_family_info`` is deterministic per profile,
        #: and corpus replay re-serves the same words — keyed by the decode
        #: function (not arch string: toy test models reuse arch names).
        self._info_memo: dict[tuple, object] = {}
        #: (info memo key, model class, prefix, assumptions fp) -> family key
        self._key_memo: dict[tuple, str] = {}

    # -- family derivation ---------------------------------------------------

    def _family_info(self, profile, word: int) -> _FamilyInfo | None:
        decoded = profile.decode_fields(word)
        if decoded is None:
            return None
        arm, fields = decoded
        reg_fields = []
        imm_fields = []
        summary = []
        class_of_value: dict[int, int] = {}
        for name, hi, lo, kind in fields:
            value = (word >> lo) & ((1 << (hi - lo + 1)) - 1)
            if kind == "reg" and value not in profile.special_indices:
                cid = class_of_value.setdefault(value, len(class_of_value))
                reg_fields.append((name, hi, lo, cid))
                summary.append(f"{name}@{cid}")
            elif kind == "imm":
                imm_fields.append((name, hi, lo, value))
                summary.append(f"{name}?")
            else:
                summary.append(f"{name}={value}")
        if len(class_of_value) > len(profile.canonical_indices):
            return None
        class_values = [0] * len(class_of_value)
        for value, cid in class_of_value.items():
            class_values[cid] = value
        canonical = 0
        reg_by_name = {name: cid for name, _, _, cid in reg_fields}
        imm_names = {name for name, _, _, _ in imm_fields}
        for name, hi, lo, kind in fields:
            value = (word >> lo) & ((1 << (hi - lo + 1)) - 1)
            if name in reg_by_name and kind == "reg":
                value = profile.canonical_indices[reg_by_name[name]]
            elif name in imm_names:
                pass  # immediates keep the triggering value (decode check only)
            canonical |= value << lo
        return _FamilyInfo(
            arm=arm,
            fields=fields,
            field_summary=";".join(summary),
            reg_fields=tuple(reg_fields),
            imm_fields=tuple(imm_fields),
            class_values=tuple(class_values),
            canonical_word=canonical,
        )

    # -- build ---------------------------------------------------------------

    def _assumption_bases(self, assumptions) -> set[str]:
        out = set()
        if assumptions is not None:
            out.update(r.base for r in assumptions.pinned)
            out.update(r.base for r in assumptions.constrained)
        return out

    def _build(
        self, model, profile, info, key, assumptions, max_paths,
        name_prefix, budget, cache,
    ) -> FamilyEntry | None:
        """Symbolically execute the family's canonical opcode.

        Deterministic failures (with no budget active) mark the key
        unsupported; failures under a budget are treated as transient —
        this one call falls back to direct execution, but the family may
        build successfully later under a roomier budget.
        """
        from .executor import IslaError, _enumerate_raw

        suffix = _metric_suffix(profile.arch, info.arm)
        placeholders = tuple(
            f"{profile.reg_prefix}{profile.canonical_indices[cid]}"
            for cid in range(len(info.class_values))
        )
        # Sanity: the canonical word must decode to the same arm and layout
        # (placeholder indices could in principle perturb a decoder's
        # form-selection bits — they never tile with register fields, but
        # the check is cheap and the failure mode is silent unsoundness).
        if profile.decode_fields(info.canonical_word) != (info.arm, info.fields):
            self._mark_unsupported(key, suffix)
            return None
        if any(base in self._assumption_bases(assumptions) for base in placeholders):
            # The assumptions pin/constrain a placeholder register: reads of
            # it would specialise the family to those constraints, making
            # renaming unsound.  Deterministic per key (the key covers the
            # assumptions), so remember the refusal.
            self._mark_unsupported(key, suffix)
            return None
        parts = []
        operand_vars: dict[str, Term] = {}
        reg_by_name = {name: cid for name, _, _, cid in info.reg_fields}
        imm_by_name = {name: (hi, lo) for name, hi, lo, _ in info.imm_fields}
        for name, hi, lo, _kind in info.fields:
            width = hi - lo + 1
            if name in imm_by_name:
                var = B.var(f"{_OPERAND_PREFIX}{name}", bv_sort(width))
                operand_vars[name] = var
                parts.append(var)
            elif name in reg_by_name:
                parts.append(
                    B.bv(profile.canonical_indices[reg_by_name[name]], width)
                )
            else:
                parts.append(
                    B.bv((info.canonical_word >> lo) & ((1 << width) - 1), width)
                )
        opcode_term = B.concat_many(*parts)
        # ``Budget.exhausted`` is sticky; a family build that runs out of
        # paths must not poison the caller's budget — the concrete opcode
        # forks strictly less than the family, so the direct fallback may
        # well complete.  Restore the marker on any build failure (genuine
        # deadline/conflict exhaustion re-fires immediately in the fallback).
        prior_exhausted = budget.exhausted if budget is not None else None
        try:
            raw, metrics, exhausted = _enumerate_raw(
                model, opcode_term, assumptions, max_paths, name_prefix, budget
            )
            if raw is None or exhausted is not None:
                raise IslaError(f"family enumeration exhausted: {exhausted}")
        except (IslaError, ValueError) as exc:
            # ValueError is ``fld_int`` hitting a symbolic decode field — a
            # deterministic property of the arm.  IslaError under a budget
            # may be the budget's fault; without one it is deterministic.
            if budget is not None and budget.exhausted != prior_exhausted:
                budget.exhausted = prior_exhausted
            _count("family_build_failures")
            if isinstance(exc, ValueError) or budget is None:
                self._mark_unsupported(key, suffix)
            return None
        except Exception:
            # BudgetExhausted, transient faults bubbling out, ...: transient.
            if budget is not None and budget.exhausted != prior_exhausted:
                budget.exhausted = prior_exhausted
            _count("family_build_failures")
            return None
        placeholder_set = set(placeholders)
        fixed = frozenset(
            j.reg.base
            for j in raw.iter_events()
            if isinstance(j, (E.ReadReg, E.WriteReg, E.AssumeReg))
            and j.reg.base not in placeholder_set
        )
        entry = FamilyEntry(
            key=key,
            arm=info.arm,
            arch=profile.arch,
            raw=raw,
            operand_vars=operand_vars,
            placeholder_bases=placeholders,
            fixed_regs=fixed,
            operand_dependent=_operand_dependent(raw, operand_vars.values()),
            metrics=metrics,
        )
        _count("family_builds")
        _count(f"family_builds_{suffix}")
        with self._lock:
            self._families[key] = entry
        if cache is not None:
            try:
                cache.store_family(key, raw, _entry_meta(entry))
            except Exception:
                pass  # the disk tier is an accelerator, never a dependency
        return entry

    def _mark_unsupported(self, key: str, suffix: str) -> None:
        with self._lock:
            self._unsupported.add(key)
        _count("family_unsupported")
        _count(f"family_unsupported_{suffix}")

    # -- dispatch ------------------------------------------------------------

    def try_parametric(
        self,
        model,
        opcode: Term,
        assumptions,
        max_paths: int,
        name_prefix: str,
        budget,
        cache,
    ):
        """Family-first dispatch for one concrete opcode.

        Returns ``(trace, paths, guard_checks)`` with the instantiated
        *final* (simplified, well-formedness-checked) trace, or ``None`` to
        fall back to the direct path.  Never raises.
        """
        profile = model.parametric_profile()
        if profile is None or not opcode.is_value():
            return None
        memo_key = (
            profile.decode_fields, profile.special_indices,
            profile.canonical_indices, opcode.value,
        )
        info = self._info_memo.get(memo_key, _UNMEMOIZED)
        if info is _UNMEMOIZED:
            info = self._family_info(profile, opcode.value)
            if len(self._info_memo) >= 1 << 16:
                self._info_memo.clear()
            self._info_memo[memo_key] = info
        if info is None:
            return None
        from ..cache.keys import assumptions_fingerprint

        key_memo = (
            memo_key, type(model), name_prefix,
            assumptions_fingerprint(model, assumptions),
        )
        key = self._key_memo.get(key_memo)
        if key is None:
            key = family_trace_key(
                model, profile.arch, info.arm, info.field_summary,
                assumptions, name_prefix,
            )
            if len(self._key_memo) >= 1 << 16:
                self._key_memo.clear()
            self._key_memo[key_memo] = key
        suffix = _metric_suffix(profile.arch, info.arm)
        with self._lock:
            if key in self._unsupported:
                _count("family_misses")
                return None
            entry = self._families.get(key)
        hit = entry is not None
        if entry is None and cache is not None:
            entry = self._load_disk(cache, key, profile.arch, info.arm)
            hit = entry is not None
        if entry is None:
            entry = self._build(
                model, profile, info, key, assumptions, max_paths,
                name_prefix, budget, cache,
            )
            if entry is None:
                _count("family_misses")
                return None
        instantiated = self._instantiate(
            entry, profile, info, assumptions, name_prefix
        )
        if instantiated is None:
            _count("guard_failures")
            _count(f"guard_failures_{suffix}")
            return None
        served, guard_checks, finished, form = instantiated
        # Path-budget parity: a caller whose path allowance is smaller than
        # the family's path count must observe the same PathBudgetExceeded
        # the direct enumeration raises, so fall back instead of serving.
        path_limit = max_paths if budget is None else budget.path_limit(max_paths)
        paths = served.num_paths()
        if paths > path_limit:
            _count("family_budget_fallbacks")
            return None
        if hit:
            _count("family_hits")
            _count(f"family_hits_{suffix}")
        _count("family_instantiations")
        if finished:
            # Fast serve: ``served`` is already in final (simplified) form
            # and its names match direct execution's — run the same final
            # well-formedness assert ``_finish_raw`` would have, once per
            # served form (see ``_ServedForm.final_checked``).
            if not form.final_checked:
                from ..analysis.wellformed import maybe_assert_wellformed

                maybe_assert_wellformed(
                    served,
                    model.regfile,
                    where=f"trace_for_opcode({opcode!r})",
                )
                form.final_checked = True
            trace = served
        else:
            from .executor import _finish_raw

            trace = _finish_raw(served, model, opcode)
        return trace, paths, guard_checks

    # -- instantiation -------------------------------------------------------

    def _instantiate(self, entry, profile, info, assumptions, name_prefix):
        """Returns ``(trace, guard_checks, finished, form)`` or
        ``None``.

        ``finished=True`` means ``trace`` is the *final* (simplified)
        trace, produced by substituting into the family's own simplified
        form (``form`` is the :class:`_ServedForm` it came from);
        ``finished=False`` means ``trace`` is a raw tree the caller must
        still run through ``_finish_raw`` (``form`` is ``None``).
        """
        concrete_bases = tuple(
            f"{profile.reg_prefix}{idx}" for idx in info.class_values
        )
        assumption_bases = self._assumption_bases(assumptions)
        for base in concrete_bases:
            # Guard 1: direct execution of an assumed-about register emits
            # AssumeReg/Assume events the family trace does not contain.
            # Guard 2: the register is structurally accessed by the family
            # (e.g. the link register in ``blr x30``) — renaming would
            # conflate the operand read with the structural access.
            if base in assumption_bases or base in entry.fixed_regs:
                return None
        rename = {
            entry.placeholder_bases[cid]: concrete_bases[cid]
            for cid in range(len(concrete_bases))
        }
        sigma: dict[Term, Term] = {}
        values_by_name = {name: value for name, _, _, value in info.imm_fields}
        for name, var in entry.operand_vars.items():
            if name not in values_by_name:
                return None  # layout drift — refuse rather than mis-substitute
            sigma[var] = B.bv(values_by_name[name], var.width)
        where = f"parametric {entry.arch}/{entry.arm}"
        base = entry.served_form()
        memo: dict = {}  # shared across forms: sigma is fixed per serve
        form = base
        served = _fast_instantiate(
            base.final, base.index, rename, sigma, base.shadows, memo
        )
        if served is None:
            # The base form refused because some define folds under this
            # substitution.  Families whose folds are *structural* (e.g.
            # ``sign_extend`` of a literal immediate folds for every
            # instance) have a cached variant form with those defines
            # inlined symbolically — serve from it when this instance
            # folds the same way.
            for variant in entry.variants.values():
                if not _fold_checks_match(variant.fold_checks, sigma, memo):
                    continue
                served = _fast_instantiate(
                    variant.final, variant.index, rename, sigma, (), memo
                )
                if served is not None:
                    form = variant
                    _count("family_variant_serves")
                    break
        if served is not None:
            guard_checks = 0
            if entry.operand_dependent:
                # Fork asserts are identical between the raw and simplified
                # family forms (the executor never names a literal, so the
                # constant-inlining pass cannot rewrite them).
                ok, guard_checks = _paths_feasible(served)
                if not ok:
                    return None
            maybe_assert_substitution_wellformed(
                form.final, served, sigma, rename, where=where,
                recheck_trace=False,
            )
            _count("family_fast_serves")
            return served, guard_checks, True, form
        raw, sig = _renorm(entry.raw, rename, sigma, name_prefix, entry.indexed())
        if raw is None:
            return None  # a fork condition folded: direct would not fork here
        if (
            any(sig)
            and sig not in entry.variants
            and len(entry.variants) < _MAX_VARIANTS
        ):
            variant = _build_variant(entry, sig, name_prefix)
            if variant is not None:
                entry.variants[sig] = variant
        guard_checks = 0
        if entry.operand_dependent:
            ok, guard_checks = _paths_feasible(raw)
            if not ok:
                return None
        # ``recheck_trace=False``: the serve path feeds ``raw`` straight
        # into ``_finish_raw``, whose own well-formedness assert re-judges
        # the final trace — only the mapping checks (WF010-012) are new
        # information here.
        maybe_assert_substitution_wellformed(
            entry.raw, raw, sigma, rename, where=where, recheck_trace=False
        )
        return raw, guard_checks, False, None

    # -- disk tier -----------------------------------------------------------

    def _load_disk(self, cache, key, arch, arm):
        try:
            hit = cache.load_family(key)
        except Exception:
            return None
        if hit is None:
            return None
        raw, meta = hit
        operand_vars = {}
        for name, width in meta.get("operand_fields", []):
            operand_vars[name] = B.var(
                f"{_OPERAND_PREFIX}{name}", bv_sort(int(width))
            )
        entry = FamilyEntry(
            key=key,
            arm=meta.get("arm", arm),
            arch=arch,
            raw=raw,
            operand_vars=operand_vars,
            placeholder_bases=tuple(meta.get("placeholder_bases", [])),
            fixed_regs=frozenset(meta.get("fixed_regs", [])),
            operand_dependent=bool(meta.get("operand_dependent", True)),
            metrics={
                k: v for k, v in meta.items()
                if isinstance(v, int) and not isinstance(v, bool)
            },
        )
        with self._lock:
            self._families[key] = entry
        return entry

    # -- maintenance ---------------------------------------------------------

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()
            self._unsupported.clear()
            self._info_memo.clear()
            self._key_memo.clear()


def _entry_meta(entry: FamilyEntry) -> dict:
    meta = dict(entry.metrics)
    meta.update(
        {
            "arm": entry.arm,
            "placeholder_bases": list(entry.placeholder_bases),
            "fixed_regs": sorted(entry.fixed_regs),
            "operand_dependent": entry.operand_dependent,
            "operand_fields": sorted(
                (name, var.width) for name, var in entry.operand_vars.items()
            ),
        }
    )
    return meta


def _operand_dependent(trace: Trace, seed_vars) -> bool:
    """Does any fork condition transitively depend on an operand variable?

    Taint starts at the free operand variables and propagates through
    ``DefineConst`` chains (the solver treats defined variables as free, so
    a fork assert mentioning a tainted define is operand-dependent even
    though the operand variable does not appear syntactically).
    """
    seed = frozenset(seed_vars)
    if not seed:
        return False

    def walk(tr: Trace, tainted: frozenset) -> bool:
        for j in tr.events:
            if isinstance(j, E.DefineConst) and (term_vars(j.expr) & tainted):
                tainted = tainted | {j.var}
        if tr.cases is None:
            return False
        for child in tr.cases:
            head = child.events[0] if child.events else None
            if isinstance(head, E.Assert) and (term_vars(head.expr) & tainted):
                return True
            if walk(child, tainted):
                return True
        return False

    return walk(trace, seed)


def _event_free_vars(j: E.Event) -> frozenset:
    """Union of the free variables of an event's term payloads."""
    if isinstance(j, E.DefineConst):
        return j.expr.free_vars()
    if isinstance(j, (E.ReadReg, E.WriteReg, E.AssumeReg)):
        return j.value.free_vars()
    if isinstance(j, E.ReadMem):
        return j.data.free_vars() | j.addr.free_vars()
    if isinstance(j, E.WriteMem):
        return j.addr.free_vars() | j.data.free_vars()
    if isinstance(j, (E.Assert, E.Assume)):
        return j.expr.free_vars()
    return frozenset()  # DeclareConst carries no term payload


def _build_var_index(trace: Trace) -> tuple:
    """A mirror of ``trace``: per node, each event's free-var set plus the
    recursively-indexed children.  Built once per family, it turns the
    per-serve "could the substitution touch this event?" question into a
    frozenset intersection instead of a term-DAG walk."""
    events = tuple(_event_free_vars(j) for j in trace.events)
    if trace.cases is None:
        return (events, None)
    return (events, tuple(_build_var_index(c) for c in trace.cases))


def _shadow_define_exprs(raw: Trace, final: Trace, opvars: frozenset) -> tuple:
    """Operand-dependent define bodies dropped between ``raw`` and ``final``.

    Matched node-by-node (simplification preserves the ``Cases`` shape, and
    sibling paths reuse fresh names, so a flat var-set comparison would
    conflate a define dropped in one arm with its namesake kept in another).
    """
    if not opvars:
        return ()
    out: list[Term] = []

    def walk(r: Trace, f: Trace) -> None:
        kept = {j.var for j in f.events if isinstance(j, E.DefineConst)}
        for j in r.events:
            if (
                isinstance(j, E.DefineConst)
                and j.var not in kept
                and not opvars.isdisjoint(j.expr.free_vars())
            ):
                out.append(j.expr)
        if r.cases is not None:
            for rc, fc in zip(r.cases, f.cases):
                walk(rc, fc)

    walk(raw, final)
    return tuple(out)


def _fast_instantiate(
    final: Trace,
    index: tuple,
    rename: dict[str, str],
    sigma: dict[Term, Term],
    shadows: tuple,
    memo: dict | None = None,
) -> Trace | None:
    """Substitute operands straight into the family's *simplified* trace.

    Simplification commutes with operand substitution as long as the
    substitution does not change the trace's def/use structure: family raw
    traces contain no constant defines (the executor elides literals at
    emission), so every simplification pass — constant inlining, dead-def
    and dead-read elimination, trivial-assert removal — keys on which
    variables each event mentions, never on the concrete values inside.
    Under that condition the simplified family trace instantiates directly:
    no renumbering (no define can have been elided), no re-simplification,
    no re-derived read sets.

    The condition is checked *dynamically* per event: returns ``None`` —
    fall back to raw-trace renormalisation — whenever a substituted define
    folds to a literal/variable (direct execution would have elided it), a
    fork or assumption condition becomes decided, or any non-operand
    variable vanishes from an event's terms (a collapsed subterm could turn
    a read dead).  Events whose precomputed variable sets miss the operand
    variables are reused as-is.  ``shadows`` are the operand-dependent
    define bodies simplification dropped: absent from the served trace but
    still numbering-relevant, they get the same fold check.
    """
    if memo is None:
        memo = {}  # per serve: sigma is fixed for the instantiation
    for expr in shadows:
        folded = B.substitute(expr, sigma, memo)
        if folded.is_value() or folded.is_var():
            return None  # direct execution would never have numbered this

    def rename_reg(reg: E.Reg) -> E.Reg:
        if reg.field is None:
            base = rename.get(reg.base)
            if base is not None:
                return E.Reg(base)
        return reg

    def walk(tr: Trace, idx: tuple) -> Trace | None:
        event_vars, child_idx = idx
        events: list[E.Event] = []
        for j, jvars in zip(tr.events, event_vars):
            if jvars.isdisjoint(sigma):
                if isinstance(j, (E.ReadReg, E.WriteReg, E.AssumeReg)):
                    reg = rename_reg(j.reg)
                    if reg is not j.reg:
                        j = type(j)(reg, j.value)
                events.append(j)
                continue
            keep = jvars - sigma.keys()
            if isinstance(j, E.DefineConst):
                expr = B.substitute(j.expr, sigma, memo)
                if expr.is_value() or expr.is_var():
                    return None  # direct execution would elide this define
                if not keep <= expr.free_vars():
                    return None  # a collapsed subterm dropped a variable
                events.append(E.DefineConst(j.var, expr))
            elif isinstance(j, (E.ReadReg, E.WriteReg, E.AssumeReg)):
                value = B.substitute(j.value, sigma, memo)
                if not keep <= value.free_vars():
                    return None
                events.append(type(j)(rename_reg(j.reg), value))
            elif isinstance(j, E.ReadMem):
                data = B.substitute(j.data, sigma, memo)
                addr = B.substitute(j.addr, sigma, memo)
                if not keep <= (data.free_vars() | addr.free_vars()):
                    return None
                events.append(E.ReadMem(data, addr, j.nbytes))
            elif isinstance(j, E.WriteMem):
                addr = B.substitute(j.addr, sigma, memo)
                data = B.substitute(j.data, sigma, memo)
                if not keep <= (addr.free_vars() | data.free_vars()):
                    return None
                events.append(E.WriteMem(addr, data, j.nbytes))
            elif isinstance(j, (E.Assert, E.Assume)):
                expr = B.substitute(j.expr, sigma, memo)
                if expr.is_value():
                    return None  # decided condition: tree shape mismatch
                if not keep <= expr.free_vars():
                    return None
                events.append(type(j)(expr))
            else:
                return None  # unknown event kind: refuse to instantiate
        if tr.cases is None:
            return Trace(tuple(events))
        children = []
        for child, cidx in zip(tr.cases, child_idx):
            sub = walk(child, cidx)
            if sub is None:
                return None
            children.append(sub)
        return Trace(tuple(events), tuple(children))

    return walk(final, index)


def _renorm(
    trace: Trace,
    rename: dict[str, str],
    sigma: dict[Term, Term],
    prefix: str,
    index: tuple,
) -> tuple:
    """Instantiate a family trace: rename registers, substitute operands,
    and replay the executor's fresh-name discipline.

    Returns ``(trace, fold_signature)``.  The trace is ``None`` when a
    fork condition folds to a constant under the substitution — direct
    execution would have *decided* that branch instead of forking, so the
    family's tree shape is wrong for this opcode and the caller must fall
    back.  The fold signature records, per ``DefineConst`` in walk order,
    whether its body folded away (elision) — the key under which a
    reusable variant served form can be built (see :func:`_build_variant`).

    ``mapping`` holds only *non-identity* entries (terms are interned, so
    a renumbered declare usually re-produces the family's own variable
    object and needs no entry).  An event whose free variables miss the
    mapping — per the precomputed ``index`` — is reused as-is; on the
    common no-elision serve only the handful of events that syntactically
    mention an operand field are ever rebuilt.
    """

    def rename_reg(reg: E.Reg) -> E.Reg:
        if reg.field is None:
            base = rename.get(reg.base)
            if base is not None:
                return E.Reg(base)
        return reg

    sig: list = []

    def walk(tr: Trace, idx: tuple, mapping: dict, counter: int) -> Trace | None:
        event_vars, child_idx = idx
        events: list[E.Event] = []
        for j, jvars in zip(tr.events, event_vars):
            live = mapping and not jvars.isdisjoint(mapping)

            def subst(t: Term) -> Term:
                return B.substitute(t, mapping) if live else t

            if isinstance(j, E.DeclareConst):
                new = B.var(f"{prefix}{counter}", j.sort)
                counter += 1
                if new is j.var:
                    events.append(j)
                else:
                    mapping[j.var] = new
                    events.append(E.DeclareConst(new, j.sort))
            elif isinstance(j, E.DefineConst):
                expr = subst(j.expr)
                folded = expr.is_value() or expr.is_var()
                sig.append(folded)
                if folded:
                    # Replay ``SymbolicMachine.define``'s elision: direct
                    # execution never names a literal or a bare variable.
                    mapping[j.var] = expr
                else:
                    new = B.var(f"{prefix}{counter}", expr.sort)
                    counter += 1
                    if new is j.var and expr is j.expr:
                        events.append(j)
                    else:
                        if new is not j.var:
                            mapping[j.var] = new
                        events.append(E.DefineConst(new, expr))
            elif isinstance(j, E.ReadReg):
                reg, value = rename_reg(j.reg), subst(j.value)
                events.append(
                    j if reg is j.reg and value is j.value else E.ReadReg(reg, value)
                )
            elif isinstance(j, E.WriteReg):
                reg, value = rename_reg(j.reg), subst(j.value)
                events.append(
                    j if reg is j.reg and value is j.value else E.WriteReg(reg, value)
                )
            elif isinstance(j, E.AssumeReg):
                reg, value = rename_reg(j.reg), subst(j.value)
                events.append(
                    j if reg is j.reg and value is j.value
                    else E.AssumeReg(reg, value)
                )
            elif isinstance(j, E.ReadMem):
                data, addr = subst(j.data), subst(j.addr)
                events.append(
                    j if data is j.data and addr is j.addr
                    else E.ReadMem(data, addr, j.nbytes)
                )
            elif isinstance(j, E.WriteMem):
                addr, data = subst(j.addr), subst(j.data)
                events.append(
                    j if addr is j.addr and data is j.data
                    else E.WriteMem(addr, data, j.nbytes)
                )
            elif isinstance(j, E.Assert):
                expr = subst(j.expr)
                if expr.is_value():
                    return None  # decided fork: tree shape mismatch
                events.append(j if expr is j.expr else E.Assert(expr))
            elif isinstance(j, E.Assume):
                expr = subst(j.expr)
                events.append(j if expr is j.expr else E.Assume(expr))
            else:
                return None  # unknown event kind: refuse to instantiate
        if tr.cases is None:
            return Trace(tuple(events))
        children = []
        for child, cidx in zip(tr.cases, child_idx):
            # Each child copies the mapping and *restarts from the same
            # counter*: sibling paths re-execute the shared prefix, so the
            # executor numbers them identically past the fork.
            sub = walk(child, cidx, dict(mapping), counter)
            if sub is None:
                return None
            children.append(sub)
        return Trace(tuple(events), tuple(children))

    return walk(trace, index, dict(sigma), 0), tuple(sig)


def _fold_checks_match(fold_checks: tuple, sigma: dict, memo: dict) -> bool:
    """Does this substitution fold exactly the defines the variant inlined?

    A variant's compact numbering is correct only for instances whose
    elision pattern matches its fold signature — a define that folds when
    the variant kept it (or vice versa) shifts every later fresh name.
    """
    for expr, expected in fold_checks:
        folded = B.substitute(expr, sigma, memo)
        if (folded.is_value() or folded.is_var()) != expected:
            return False
    return True


def _build_variant(entry: FamilyEntry, sig: tuple, prefix: str) -> _ServedForm | None:
    """Build the served form for one fold signature.

    Re-walks the family raw trace *symbolically*, forcing the elisions the
    signature records: folded defines are inlined (their body, with operand
    variables still free, substituted into every consumer) instead of
    named, and the surviving declares/defines renumber compactly — exactly
    the numbering direct execution produces for instances that fold this
    way.  One ``simplify_trace`` then yields a parametric final form that
    such instances can serve by substitution alone.
    """
    opvars = frozenset(entry.operand_vars.values())
    built = _forced_renorm(entry.raw, sig, prefix, entry.indexed(), opvars)
    if built is None:
        return None
    variant_raw, fold_checks = built
    from .footprint import simplify_trace

    final = simplify_trace(variant_raw)
    return _ServedForm(
        final=final,
        index=_build_var_index(final),
        fold_checks=fold_checks,
    )


def _forced_renorm(
    trace: Trace,
    sig: tuple,
    prefix: str,
    index: tuple,
    opvars: frozenset,
) -> tuple | None:
    """Renumber a family raw trace under a *forced* elision pattern.

    Like :func:`_renorm`, but symbolic: no operand substitution happens —
    defines the signature marks as folding are inlined with their operand
    variables still free, so the result is itself a parametric trace.
    Registers keep their placeholder bases (serve-time renaming is cheap).
    Returns ``(trace, fold_checks)`` where ``fold_checks`` pairs every
    operand-dependent define body (post-inlining) with its expected
    foldedness, or ``None`` when the signature is inconsistent with the
    trace structure.
    """
    bits = iter(sig)
    checks: list = []

    def walk(tr: Trace, idx: tuple, mapping: dict, counter: int) -> Trace | None:
        event_vars, child_idx = idx
        events: list[E.Event] = []
        for j, jvars in zip(tr.events, event_vars):
            live = mapping and not jvars.isdisjoint(mapping)

            def subst(t: Term) -> Term:
                return B.substitute(t, mapping) if live else t

            if isinstance(j, E.DeclareConst):
                new = B.var(f"{prefix}{counter}", j.sort)
                counter += 1
                if new is j.var:
                    events.append(j)
                else:
                    mapping[j.var] = new
                    events.append(E.DeclareConst(new, j.sort))
            elif isinstance(j, E.DefineConst):
                try:
                    folds = next(bits)
                except StopIteration:
                    return None
                expr = subst(j.expr)
                if not opvars.isdisjoint(expr.free_vars()):
                    checks.append((expr, folds))
                elif folds:
                    return None  # only operand folds can differ per instance
                if folds:
                    mapping[j.var] = expr
                elif expr.is_value() or expr.is_var():
                    return None  # would fold for every instance: not a define
                else:
                    new = B.var(f"{prefix}{counter}", expr.sort)
                    counter += 1
                    if new is j.var and expr is j.expr:
                        events.append(j)
                    else:
                        if new is not j.var:
                            mapping[j.var] = new
                        events.append(E.DefineConst(new, expr))
            elif isinstance(j, (E.ReadReg, E.WriteReg, E.AssumeReg)):
                value = subst(j.value)
                events.append(j if value is j.value else type(j)(j.reg, value))
            elif isinstance(j, E.ReadMem):
                data, addr = subst(j.data), subst(j.addr)
                events.append(
                    j if data is j.data and addr is j.addr
                    else E.ReadMem(data, addr, j.nbytes)
                )
            elif isinstance(j, E.WriteMem):
                addr, data = subst(j.addr), subst(j.data)
                events.append(
                    j if addr is j.addr and data is j.data
                    else E.WriteMem(addr, data, j.nbytes)
                )
            elif isinstance(j, E.Assert):
                expr = subst(j.expr)
                if expr.is_value():
                    return None
                events.append(j if expr is j.expr else E.Assert(expr))
            elif isinstance(j, E.Assume):
                expr = subst(j.expr)
                events.append(j if expr is j.expr else E.Assume(expr))
            else:
                return None
        if tr.cases is None:
            return Trace(tuple(events))
        children = []
        for child, cidx in zip(tr.cases, child_idx):
            sub = walk(child, cidx, dict(mapping), counter)
            if sub is None:
                return None
            children.append(sub)
        return Trace(tuple(events), tuple(children))

    out = walk(trace, index, {}, 0)
    if out is None:
        return None
    return out, tuple(checks)


def _paths_feasible(trace: Trace) -> tuple[bool, int]:
    """SMT guard: every fork arm of the instantiated tree is satisfiable.

    Only consulted for operand-dependent families: substitution may have
    weakened (but not decided) a fork condition, and serving a tree whose
    arm direct execution would prune would change the certificate.
    """
    solver = Solver()
    checks = 0

    def walk(tr: Trace) -> bool:
        nonlocal checks
        for j in tr.events:
            if isinstance(j, (E.Assert, E.Assume)):
                solver.add(j.expr)
        if tr.cases is None:
            return True
        for child in tr.cases:
            head = child.events[0] if child.events else None
            if not isinstance(head, E.Assert):
                return False
            checks += 1
            if solver.check(head.expr) != SAT:
                return False
        for child in tr.cases:
            solver.push()
            ok = walk(child)
            solver.pop()
            if not ok:
                return False
        return True

    return walk(trace), checks


_ENGINE: ParametricEngine | None = None
_ENGINE_LOCK = threading.Lock()


def engine() -> ParametricEngine:
    """The process-global family engine."""
    global _ENGINE
    if _ENGINE is None:
        with _ENGINE_LOCK:
            if _ENGINE is None:
                _ENGINE = ParametricEngine()
    return _ENGINE
