"""The solver façade used by the rest of the system.

A :class:`Solver` holds a stack of asserted boolean terms (with ``push`` /
``pop`` scoping, mirroring SMT-LIB) and answers satisfiability and validity
queries by bit-blasting into the CDCL core.  Results are cached keyed on the
asserted set, which matters a lot in practice: the Isla executor asks about
many branch conditions under the same path prefix, and the separation-logic
automation re-discharges structurally identical side conditions.

One engine: a query the word-level theory layer and small-domain
enumeration cannot decide is bit-blasted into a fresh
:class:`~repro.smt.sat.SatSolver` (:meth:`Solver._solve`), so no encoding
or learned clause outlives its query and ``push``/``pop`` only scope the
assertion stack.

Goal slicing: a multi-conjunct goal factors into variable-disjoint
connected components, which are satisfiable independently — see
:mod:`repro.smt.slicing`.  ``check()`` solves the component touching the
query terms and answers the rest (the already-seen path constraints) from
the check cache, which is keyed per component so hits survive across
queries that merely *extend* an unrelated part of the context.

Resource governance (``repro.resilience``): a solver may carry a
:class:`~repro.resilience.budget.Budget`.  Governed queries climb the
degradation ladder — the word-level theory layer first (free), then
bit-blasting under escalating conflict budgets — and charge every SAT
conflict against the run-wide allowance.  ``unknown`` results record *why*
in :attr:`Solver.last_unknown_reason` so degraded verification runs can
name their bottleneck.  Fault-injection sites (``solver.check``,
``solver.cache``, ``sat.solve``, ``bitblast``) are no-ops unless a
deterministic injector is active; see :mod:`repro.resilience.faults`.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter

from ..obs import Counters
from ..resilience.budget import Budget
from ..resilience.faults import fault_at
from ..resilience.ladder import DegradationLadder
from . import builder as B
from .bitblast import BitBlaster, UnsupportedOperation
from .cnf import CnfBuilder
from .interp import evaluate
from .sat import SatSolver
from .slicing import partition_goal, query_component_indices
from .terms import FALSE, TRUE, Term
from .theory import FactBase, saturated

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Conflict budget for the SAT fallback.  Queries the word-level theory layer
#: cannot decide and that exceed this budget come back ``unknown``; the
#: verification layers treat that conservatively (branch kept / side
#: condition not discharged), mirroring how the paper's automation falls back
#: to manual hints.
DEFAULT_MAX_CONFLICTS = 60_000

#: Default cap on the global check cache.  Entries are tiny (a frozenset key
#: and a 3-7 byte result), but the *keys* pin term DAGs alive; an unbounded
#: cache is a leak under sustained load.
DEFAULT_CACHE_CAPACITY = 16_384


#: The LRU check cache's counters (its ``stats()`` adds two gauges,
#: ``entries`` and ``capacity``).
LRU_COUNTERS = ("hits", "misses", "evictions", "injected_drops")


class LruCheckCache:
    """A bounded LRU map from asserted-set keys to check results.

    Hit/miss/eviction counts are process-level and also counted in the
    current run scope as ``cache.*`` (see :mod:`repro.obs`); the
    ``solver.cache`` fault site can deterministically drop the entry being
    looked up, forcing a recomputation (which must reproduce the same
    answer — the cache is an optimisation, never an oracle).
    """

    def __init__(self, capacity: int | None = DEFAULT_CACHE_CAPACITY) -> None:
        self.capacity = capacity
        self._data: OrderedDict[frozenset[Term], str] = OrderedDict()
        self.counters = Counters(LRU_COUNTERS, scoped_as="cache.")

    def get(self, key: frozenset[Term]) -> str | None:
        if fault_at("solver.cache") == "drop":
            if self._data.pop(key, None) is not None:
                self.counters.inc("injected_drops")
            self.counters.inc("misses")
            return None
        value = self._data.get(key)
        if value is None:
            self.counters.inc("misses")
            return None
        self._data.move_to_end(key)
        self.counters.inc("hits")
        return value

    def put(self, key: frozenset[Term], value: str) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        if self.capacity is not None:
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.counters.inc("evictions")

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._data),
            "capacity": self.capacity if self.capacity is not None else -1,
            **self.counters.snapshot(),
        }


_GLOBAL_CHECK_CACHE = LruCheckCache()


#: Per-:class:`Solver` query counters (``Solver.stats``), summed into a
#: run report's ``solver_stats``: results by kind, bit-blaster refusals
#: (``unsupported``), ladder rung climbs and absorbed transient faults,
#: injected unknowns, ``quick_valid``
#: outcomes, queries that reached the CDCL core (``sat_solves``), goal
#: slicing, and the microseconds spent bit-blasting (``encode_us``) and in
#: SAT search.
SOLVER_COUNTERS = (
    "checks", "cache_hits", "sat_results", "unsat_results", "unknown_results",
    "unsupported", "escalations", "transient_retries", "injected_unknowns",
    "quick_valid_hits", "quick_valid_misses",
    "sat_solves", "sliced_checks", "slice_components",
    "slice_cache_hits", "slice_solves", "encode_us", "solve_us",
)


class Solver:
    """A scoped assertion stack with SAT/validity queries.

    Example::

        s = Solver()
        x = B.bv_var("x", 64)
        s.add(B.eq(x, B.bv(5, 64)))
        assert s.check() == SAT
        assert s.is_valid(B.bvult(x, B.bv(6, 64)))
    """

    def __init__(
        self,
        use_global_cache: bool = True,
        max_conflicts: int | None = DEFAULT_MAX_CONFLICTS,
        budget: Budget | None = None,
    ) -> None:
        self._assertions: list[Term] = []
        self._scopes: list[int] = []
        self._use_cache = use_global_cache
        self._max_conflicts = max_conflicts
        self._budget = budget
        self._model: dict[Term, object] | None = None
        #: The goal of the last SAT check, for lazy model recomputation
        #: after a cache hit (``None`` when the last check was not SAT).
        self._model_goal: list[Term] | None = None
        self.stats = Counters(SOLVER_COUNTERS)
        #: Why the most recent check came back ``unknown`` (reset per query):
        #: "conflict-limit", "unsupported-operation", "fault:solver.check",
        #: "fault:sat.solve", "fault:transient".
        self.last_unknown_reason: str | None = None

    @property
    def budget(self) -> Budget | None:
        return self._budget

    # -- assertion stack ------------------------------------------------------

    def add(self, *terms: Term) -> None:
        for t in terms:
            if not t.sort.is_bool():
                raise TypeError(f"can only assert booleans, got {t.sort!r}")
            if t is not TRUE:
                self._assertions.append(t)

    def push(self) -> None:
        self._scopes.append(len(self._assertions))

    def pop(self) -> None:
        if not self._scopes:
            raise RuntimeError("pop without matching push")
        del self._assertions[self._scopes.pop() :]

    @property
    def assertions(self) -> tuple[Term, ...]:
        return tuple(self._assertions)

    # -- queries ---------------------------------------------------------------

    def check(self, *extra: Term) -> str:
        """Satisfiability of the asserted set plus ``extra``."""
        self.stats.inc("checks")
        self.last_unknown_reason = None
        if self._budget is not None:
            self._budget.check_deadline()
        goal = list(self._assertions) + [t for t in extra if t is not TRUE]
        if any(t is FALSE for t in goal):
            self._model = None
            self._model_goal = None
            self.stats.inc("unsat_results")
            return UNSAT
        key = frozenset(goal)
        if self._use_cache:
            hit = _GLOBAL_CHECK_CACHE.get(key)
            if hit is not None:
                self.stats.inc("cache_hits")
                # A cached result has no model; recompute if the caller needs
                # one (model() recomputes on demand).
                self._model = None
                self._model_goal = goal if hit == SAT else None
                if hit == SAT:
                    self.stats.inc("sat_results")
                else:
                    self.stats.inc("unsat_results")
                return hit
        if fault_at("solver.check") == "unknown":
            self.stats.inc("injected_unknowns")
            self.stats.inc("unknown_results")
            self.last_unknown_reason = "fault:solver.check"
            self._model = None
            self._model_goal = None
            return UNKNOWN
        components = partition_goal(goal) if len(goal) > 1 else [goal]
        if len(components) > 1:
            result, model = self._check_sliced(components, extra)
        else:
            result, model = self._solve_governed(goal)
        self._model = model
        self._model_goal = goal if result == SAT else None
        if self._use_cache and result != UNKNOWN:
            _GLOBAL_CHECK_CACHE.put(key, result)
        if result == SAT:
            self.stats.inc("sat_results")
        elif result == UNSAT:
            self.stats.inc("unsat_results")
        else:
            self.stats.inc("unknown_results")
            if self.last_unknown_reason is None:
                self.last_unknown_reason = "conflict-limit"
        return result

    def _check_sliced(
        self, components: list[list[Term]], extra: tuple[Term, ...]
    ) -> tuple[str, dict[Term, object] | None]:
        """Decide a multi-component goal component-wise.

        Sound because components share no variables: the conjunction is SAT
        iff every component is, any UNSAT component refutes the whole, and
        a model of the whole is the union of per-component models.  Query
        components (those touching ``extra``) are solved first — they carry
        the new information and are the likely refutation — while path
        components are usually warm verdict-cache hits.
        """
        self.stats.inc("sliced_checks")
        self.stats.inc("slice_components", len(components))
        query_idx = query_component_indices(
            components, tuple(t for t in extra if t is not TRUE)
        )
        order = sorted(range(len(components)), key=lambda i: (i not in query_idx, i))
        merged: dict[Term, object] = {}
        model_complete = True
        unknown = False
        for i in order:
            comp = components[i]
            comp_key = frozenset(comp)
            verdict: str | None = None
            comp_model: dict[Term, object] | None = None
            if self._use_cache:
                hit = _GLOBAL_CHECK_CACHE.get(comp_key)
                if hit is not None:
                    self.stats.inc("slice_cache_hits")
                    verdict = hit
            if verdict is None:
                self.stats.inc("slice_solves")
                verdict, comp_model = self._solve_governed(comp)
                if self._use_cache and verdict != UNKNOWN:
                    _GLOBAL_CHECK_CACHE.put(comp_key, verdict)
            if verdict == UNSAT:
                # One unsatisfiable component refutes the conjunction; the
                # remaining components need not be looked at at all.
                return UNSAT, None
            if verdict == UNKNOWN:
                unknown = True
            elif comp_model is not None:
                merged.update(comp_model)
            else:
                model_complete = False  # cached SAT: model() recomputes lazily
        if unknown:
            return UNKNOWN, None
        return SAT, merged if model_complete else None

    def is_valid(self, term: Term, *extra: Term) -> bool:
        """Is ``term`` entailed by the current assertions (plus ``extra``)?

        ``unknown`` counts as *not proven* — sound for use as a side-condition
        discharger.
        """
        return self.check(*extra, B.not_(term)) == UNSAT

    def quick_valid(self, term: Term) -> bool:
        """Theory-layer-only validity: sound but incomplete, never touches
        the SAT core.  Used for *resource search* (findₘ candidate
        screening), where a miss just means "try the next resource" — an
        expensive refutation attempt against the wrong candidate would be
        wasted work."""
        if term is TRUE:
            self.stats.inc("quick_valid_hits")
            return True
        if term is FALSE:
            self.stats.inc("quick_valid_misses")
            return False
        goal = list(self._assertions) + [B.not_(term)]
        proved = _quick_refutes(goal, 0)
        if proved:
            self.stats.inc("quick_valid_hits")
        else:
            self.stats.inc("quick_valid_misses")
        return proved

    def model(self) -> dict[Term, object]:
        """A model for the last SAT :meth:`check` (variables -> int/bool)."""
        if self._model is None:
            goal = self._model_goal
            if goal is None:
                raise RuntimeError("no model available (last check was not sat?)")
            # Lazy recompute after a cache hit runs through the governed
            # ladder, honouring the solver's conflict budget instead of
            # solving unboundedly.
            result, model = self._solve_governed(goal)
            if result != SAT or model is None:
                raise RuntimeError("no model available (last check was not sat?)")
            self._model = model
        return dict(self._model)

    # -- engine ------------------------------------------------------------------

    def _solve_governed(
        self, goal: list[Term]
    ) -> tuple[str, dict[Term, object] | None]:
        """One query through the degradation ladder.

        Ungoverned solvers keep the historical single-attempt behaviour (one
        rung at ``max_conflicts``); a budgeted solver escalates through the
        spec's conflict schedule before conceding ``unknown``.  Transient
        faults (from the ``bitblast`` site, or genuine) are retried a bounded
        number of times at the current rung.  Each rung solves the query
        afresh.
        """
        if self._budget is None:
            schedule: list[int | None] = [self._max_conflicts]
            retries = 2
        else:
            schedule = list(self._budget.conflict_schedule())
            retries = self._budget.spec.transient_retries
        ladder = DegradationLadder(schedule, transient_retries=retries)

        def attempt(conflicts: int | None) -> tuple[str, dict[Term, object] | None]:
            result = self._solve(goal, conflicts)
            if (
                result[0] == UNKNOWN
                and self.last_unknown_reason == "unsupported-operation"
            ):
                # Escalating conflicts cannot help an encoding failure;
                # short-circuit the remaining rungs.
                return "unknown-final", None
            return result

        result, model = ladder.run(attempt)
        if result == "unknown-final":
            result = UNKNOWN
        self.stats.inc("escalations", ladder.escalations)
        self.stats.inc("transient_retries", ladder.transients)
        if result == UNKNOWN and ladder.gave_up_reason is not None:
            if self.last_unknown_reason is None:
                self.last_unknown_reason = ladder.gave_up_reason
        return result, model  # type: ignore[return-value]

    def _enumeration_split(
        self,
        goal: list[Term],
        split: tuple[Term, int, int],
        max_conflicts: int | None,
        depth: int,
    ) -> tuple[str, dict[Term, object] | None]:
        """Small-domain enumeration: when the facts pin a variable into a
        small interval (e.g. a loop counter with 0 <= m < n for concrete
        n), case-split on its value — substitution constant-folds the whole
        goal, which decides the ite-heavy loop-invariant side conditions
        far faster than bit-blasting.
        """
        var, lo, hi = split
        for val in range(lo, hi + 1):
            sub_goal = _instantiate(goal, var, val)
            if sub_goal is None:
                continue
            result, model = self._solve(sub_goal, max_conflicts, depth + 1)
            if result == SAT:
                model = dict(model or {})
                model[var] = val
                return SAT, model
            if result == UNKNOWN:
                return UNKNOWN, None
        return UNSAT, None

    def _solve(
        self, goal: list[Term], max_conflicts: int | None = None, depth: int = 0
    ) -> tuple[str, dict[Term, object] | None]:
        """Decide ``goal``: the word-level theory layer, then small-domain
        enumeration (up to three nested splits), then bit-blasting into a
        fresh CDCL core."""
        # Word-level theory layer first: decides relational 64-bit goals
        # (ordering chains, interval bounds) without touching the SAT core.
        facts = saturated(goal)
        if facts is None:
            return UNSAT, None
        split = _enumerable_var(goal, facts) if depth < 3 else None
        if split is not None:
            return self._enumeration_split(goal, split, max_conflicts, depth)
        sat_solver = SatSolver()
        cnf = CnfBuilder(sat_solver)
        blaster = BitBlaster(cnf)
        t0 = perf_counter()
        try:
            for t in goal:
                blaster.assert_term(t)
        except UnsupportedOperation:
            # Not silently swallowed: the counter distinguishes "the encoding
            # gave up" from "the search gave up" in run reports.
            self.stats.inc("unsupported")
            self.last_unknown_reason = "unsupported-operation"
            return UNKNOWN, None
        finally:
            self.stats.inc("encode_us", int((perf_counter() - t0) * 1e6))
        budget = self._budget
        clip = max_conflicts
        if budget is not None:
            clip = budget.clip_conflicts(max_conflicts)
        if fault_at("sat.solve") == "unknown":
            self.stats.inc("injected_unknowns")
            self.last_unknown_reason = "fault:sat.solve"
            return UNKNOWN, None
        t1 = perf_counter()
        try:
            outcome = sat_solver.solve(max_conflicts=clip)
        finally:
            if budget is not None:
                budget.charge_conflicts(sat_solver.conflicts)
            self.stats.inc("solve_us", int((perf_counter() - t1) * 1e6))
        self.stats.inc("sat_solves")
        if outcome is None:
            if (
                budget is not None
                and clip is not None
                and (max_conflicts is None or clip < max_conflicts)
            ):
                # The truncation came from the run-wide allowance, not the
                # per-query rung: escalate to the budget layer.
                budget.exhaust(
                    "conflicts",
                    f"allowance {budget.spec.conflict_allowance} spent mid-query",
                )
            return UNKNOWN, None
        if not outcome:
            return UNSAT, None
        sat_model = sat_solver.model()

        def lit_value(lit: int) -> bool:
            if abs(lit) == cnf._true:
                return lit > 0
            val = sat_model.get(abs(lit), False)
            return val if lit > 0 else not val

        model: dict[Term, object] = {}
        for var, bits in blaster.var_bits.items():
            model[var] = sum(1 << i for i, lit in enumerate(bits) if lit_value(lit))
        for var, lit in blaster.var_lits.items():
            model[var] = lit_value(lit)
        return SAT, model


_ENUM_LIMIT = 16


def _quick_refutes(goal: list[Term], depth: int) -> bool:
    """Theory refutation plus small-domain enumeration (SAT-free)."""
    facts = saturated(goal)
    if facts is None:
        return True
    split = _enumerable_var(goal, facts) if depth < 2 else None
    if split is None:
        return False
    var, lo, hi = split
    for val in range(lo, hi + 1):
        sub_goal = _instantiate(goal, var, val)
        if sub_goal is None:
            continue
        if not _quick_refutes(sub_goal, depth + 1):
            return False
    return True


#: Small-domain enumeration's memos (DESIGN.md, "Small-domain enumeration
#: and the substitution memo").  ``_BINDING_MEMOS`` holds one
#: ``builder.substitute`` memo per binding ``(var, value)``, shared by every
#: conjunct, query and fresh solver, so a node is rebuilt once per value;
#: ``_SPLIT_ORDER`` holds each term's variables in ``_enumerable_var``'s scan
#: order.  They hold terms, never verdicts, and a hit is the interned object
#: a recomputation would build, so a race between threads costs at most the
#: node count's precision.  Past ``_MEMO_LIMIT`` nodes (split-order entries)
#: a memo is emptied wholesale; a cold verify pass ends with about 70
#: bindings holding 13k nodes.
_BINDING_MEMOS: dict[tuple[Term, Term], dict[Term, Term]] = {}
_SPLIT_ORDER: dict[Term, tuple[Term, ...]] = {}
_MEMO_LIMIT = 1 << 15
_memo_nodes = 0


def _instantiate(goal: list[Term], var: Term, val: int) -> list[Term] | None:
    """``goal`` under ``var := val``, dropping conjuncts that fold to true;
    ``None`` when one folds to false."""
    global _memo_nodes
    binding = B.bv(val, var.sort.width)
    if _memo_nodes > _MEMO_LIMIT:
        _BINDING_MEMOS.clear()
        _memo_nodes = 0
    memo = _BINDING_MEMOS.setdefault((var, binding), {})
    size = len(memo)
    try:
        sub_goal: list[Term] = []
        for g in goal:
            t = memo.get(g)
            if t is None:
                t = B.substitute(g, {var: binding}, memo)
            if t is FALSE:
                return None
            if t is not TRUE:
                sub_goal.append(t)
        return sub_goal
    finally:
        _memo_nodes += len(memo) - size


def _split_order(t: Term) -> tuple[Term, ...]:
    """``t``'s bitvector variables by descending name and width."""
    order = _SPLIT_ORDER.get(t)
    if order is None:
        if len(_SPLIT_ORDER) > _MEMO_LIMIT:
            _SPLIT_ORDER.clear()
        order = tuple(sorted(
            (v for v in t.free_vars() if v.sort.is_bv()),
            key=lambda v: (v.name, v.sort.width), reverse=True,
        ))
        _SPLIT_ORDER[t] = order
    return order


def _enumerable_var(
    goal: list[Term], facts: FactBase
) -> tuple[Term, int, int] | None:
    """Find a free bitvector variable whose interval (per the saturated
    fact base) spans at most ``_ENUM_LIMIT`` values; returns the tightest.

    Variables are scanned in goal order and, within a term, by descending
    name and width, and the first of equally tight ones wins.  So the
    choice does not depend on the iteration order of ``free_vars()`` sets
    (object addresses) or on the process's interning history.  Descending
    order is a measured choice: on the case studies it enumerates the
    fewest sub-goals of the orders tried (EXPERIMENTS.md, "Identity-hashed
    terms")."""
    seen: set[Term] = set()
    best: tuple[int, Term, int, int] | None = None
    for t in goal:
        for v in _split_order(t):
            if v in seen:
                continue
            seen.add(v)
            if len(seen) > 64:
                return best[1:] if best else None
            interval = facts.interval_of(v)
            span = interval.hi - interval.lo + 1
            if 1 <= span <= _ENUM_LIMIT and (best is None or span < best[0]):
                best = (span, v, interval.lo, interval.hi)
    return best[1:] if best else None


def clear_check_cache() -> None:
    """Drop the global result cache and small-domain enumeration's memos.

    For cold timings (the benchmarks) and for replay that must not depend
    on earlier work in the process: ``verify_case`` calls it at the start
    of every fault-seeded run."""
    global _memo_nodes
    _GLOBAL_CHECK_CACHE.clear()
    _BINDING_MEMOS.clear()
    _SPLIT_ORDER.clear()
    _memo_nodes = 0


def check_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of the global result cache."""
    return _GLOBAL_CHECK_CACHE.stats()


def set_check_cache_capacity(capacity: int | None) -> None:
    """Re-bound the global result cache (``None`` = unbounded; evicts down
    to the new cap immediately)."""
    _GLOBAL_CHECK_CACHE.capacity = capacity
    _GLOBAL_CHECK_CACHE._evict()


def check_model(goal: list[Term], model: dict[Term, object]) -> bool:
    """Re-evaluate ``goal`` under ``model`` — a soundness cross-check used in
    tests to validate the SAT core against the concrete interpreter."""
    env = dict(model)
    for t in goal:
        for v in t.free_vars():
            if v not in env:
                env[v] = False if v.sort.is_bool() else 0
        if not evaluate(t, env):
            return False
    return True
