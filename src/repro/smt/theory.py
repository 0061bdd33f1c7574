"""Word-level theory reasoning: a fast, sound UNSAT detector.

Bit-blasting plus CDCL is complete but can be slow on relational 64-bit
goals (e.g. transitivity of unsigned comparison).  This module implements the
word-level reasoning that Islaris's bespoke bitvector side-condition solver
provides in the paper: it runs *before* the SAT core and decides the common
cases instantly.

Three cooperating engines over the asserted conjuncts:

1. **equality congruence** — union-find over terms from ``(= a b)`` facts,
2. **ordering closure** — a graph of ``bvult``/``bvule`` edges between
   equivalence classes; a cycle through a strict edge is a contradiction
   (unsigned comparison is a strict partial order on values),
3. **interval propagation** — unsigned ranges computed structurally for
   terms and refined by comparison facts, iterated to a bounded fixpoint.

The detector is *sound for UNSAT*: when :func:`refutes` returns True the
conjunction really is unsatisfiable.  When it returns False the caller falls
back to bit-blasting.  Facts it cannot interpret are simply ignored, which
only loses precision, never soundness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import terms as T
from .terms import FALSE, TRUE, Term

FULL = "full"


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass
class Interval:
    """An unsigned, non-wrapping interval [lo, hi] over ``width`` bits."""

    lo: int
    hi: int
    width: int

    @staticmethod
    def full(width: int) -> "Interval":
        return Interval(0, _mask(width), width)

    @staticmethod
    def point(value: int, width: int) -> "Interval":
        value &= _mask(width)
        return Interval(value, value, width)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi), self.width)


class UnionFind:
    """Union-find over hashable items with path compression."""

    def __init__(self) -> None:
        self.parent: dict[Term, Term] = {}

    def find(self, x: Term) -> Term:
        parent = self.parent
        root = x
        while parent.get(root, root) is not root:
            root = parent[root]
        while parent.get(x, x) is not x:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: Term, b: Term) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            # Values become representatives so classes stay evaluable.
            if ra.is_value():
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


@dataclass
class FactBase:
    """Accumulated word-level facts from a conjunction of assertions."""

    uf: UnionFind = field(default_factory=UnionFind)
    diseqs: list[tuple[Term, Term]] = field(default_factory=list)
    strict: list[tuple[Term, Term]] = field(default_factory=list)  # a <u b
    nonstrict: list[tuple[Term, Term]] = field(default_factory=list)  # a <=u b
    sstrict: list[tuple[Term, Term]] = field(default_factory=list)  # a <s b
    snonstrict: list[tuple[Term, Term]] = field(default_factory=list)  # a <=s b
    pinned: dict[Term, Interval] = field(default_factory=dict)
    contradiction: bool = False

    # -- fact assimilation --------------------------------------------------

    def assume(self, fact: Term) -> None:
        work = [fact]
        while work:
            f = work.pop()
            if f is TRUE:
                continue
            if f is FALSE:
                self.contradiction = True
                return
            if f.op == T.AND:
                work.extend(f.args)
            elif f.op == T.NOT:
                self._assume_neg(f.args[0])
            elif f.op == T.EQ:
                a, b = f.args
                if a.sort.is_bool():
                    # Treated opaquely; boolean structure is SAT's job.
                    continue
                self.uf.union(a, b)
            elif f.op == T.BVULT:
                self.strict.append((f.args[0], f.args[1]))
            elif f.op == T.BVULE:
                self.nonstrict.append((f.args[0], f.args[1]))
            elif f.op == T.BVSLT:
                self.sstrict.append((f.args[0], f.args[1]))
            elif f.op == T.BVSLE:
                self.snonstrict.append((f.args[0], f.args[1]))
            # other shapes: ignored (sound)

    def _assume_neg(self, f: Term) -> None:
        if f is TRUE:
            self.contradiction = True
        elif f.op == T.EQ and not f.args[0].sort.is_bool():
            self.diseqs.append((f.args[0], f.args[1]))
        elif f.op == T.BVULT:  # not (a < b)  ==>  b <= a
            self.nonstrict.append((f.args[1], f.args[0]))
        elif f.op == T.BVULE:  # not (a <= b) ==>  b < a
            self.strict.append((f.args[1], f.args[0]))
        elif f.op == T.BVSLT:
            self.snonstrict.append((f.args[1], f.args[0]))
        elif f.op == T.BVSLE:
            self.sstrict.append((f.args[1], f.args[0]))
        elif f.op == T.OR:  # de Morgan: all disjuncts false
            for arg in f.args:
                self._assume_neg(arg)
        elif f.op == T.NOT:
            self.assume(f.args[0])

    # -- interval computation ---------------------------------------------------

    def interval_of(self, t: Term, depth: int = 8) -> Interval:
        t = self.uf.find(t)
        pinned = self.pinned.get(t)
        if pinned is not None:
            return pinned
        return self._structural(t, depth)

    def _structural(self, t: Term, depth: int) -> Interval:
        w = t.sort.width
        if t.op == T.BVVAL:
            return Interval.point(t.value, w)
        if depth <= 0:
            return Interval.full(w)
        if t.op == T.BVADD:
            a = self.interval_of(t.args[0], depth - 1)
            b = self.interval_of(t.args[1], depth - 1)
            lo, hi = a.lo + b.lo, a.hi + b.hi
            if hi <= _mask(w):
                return Interval(lo, hi, w)
            if lo > _mask(w):  # both ends wrap: still a contiguous interval
                return Interval(lo - (1 << w), hi - (1 << w), w)
            return Interval.full(w)
        if t.op == T.BVSUB:
            a = self.interval_of(t.args[0], depth - 1)
            b = self.interval_of(t.args[1], depth - 1)
            if a.lo >= b.hi:
                return Interval(a.lo - b.hi, a.hi - b.lo, w)
            return Interval.full(w)
        if t.op == T.BVNEG:
            a = self.interval_of(t.args[0], depth - 1)
            if a.lo >= 1:  # 0 not included: negation stays contiguous
                return Interval((1 << w) - a.hi, (1 << w) - a.lo, w)
            if a.lo == 0 and a.hi == 0:
                return Interval.point(0, w)
            return Interval.full(w)
        if t.op == T.BVMUL and t.args[1].is_value():
            a = self.interval_of(t.args[0], depth - 1)
            c = t.args[1].value
            if a.hi * c <= _mask(w):
                return Interval(a.lo * c, a.hi * c, w)
            return Interval.full(w)
        if t.op == T.BVAND:
            a = self.interval_of(t.args[0], depth - 1)
            b = self.interval_of(t.args[1], depth - 1)
            return Interval(0, min(a.hi, b.hi), w)
        if t.op == T.BVOR:
            a = self.interval_of(t.args[0], depth - 1)
            b = self.interval_of(t.args[1], depth - 1)
            combined = a.hi | b.hi
            return Interval(max(a.lo, b.lo), _mask(combined.bit_length()), w)
        if t.op == T.BVXOR:
            a = self.interval_of(t.args[0], depth - 1)
            b = self.interval_of(t.args[1], depth - 1)
            combined = a.hi | b.hi
            return Interval(0, _mask(combined.bit_length()), w)
        if t.op == T.ZERO_EXTEND:
            inner = self.interval_of(t.args[0], depth - 1)
            return Interval(inner.lo, inner.hi, w)
        if t.op == T.EXTRACT:
            hi, lo = t.attrs
            if lo == 0:
                inner = self.interval_of(t.args[0], depth - 1)
                if inner.hi <= _mask(w):
                    return Interval(inner.lo, inner.hi, w)
            return Interval.full(w)
        if t.op == T.CONCAT:
            hi_part = self.interval_of(t.args[0], depth - 1)
            lo_w = t.args[1].width
            lo_part = self.interval_of(t.args[1], depth - 1)
            return Interval(
                (hi_part.lo << lo_w) + lo_part.lo, (hi_part.hi << lo_w) + lo_part.hi, w
            )
        if t.op == T.BVSHL and t.args[1].is_value():
            sh = t.args[1].value
            a = self.interval_of(t.args[0], depth - 1)
            if sh < w and (a.hi << sh) <= _mask(w):
                return Interval(a.lo << sh, a.hi << sh, w)
            return Interval.full(w)
        if t.op == T.BVLSHR and t.args[1].is_value():
            sh = t.args[1].value
            a = self.interval_of(t.args[0], depth - 1)
            if sh >= w:
                return Interval.point(0, w)
            return Interval(a.lo >> sh, a.hi >> sh, w)
        if t.op == T.BVUREM and t.args[1].is_value() and t.args[1].value != 0:
            return Interval(0, t.args[1].value - 1, w)
        if t.op == T.BVUDIV and t.args[1].is_value() and t.args[1].value != 0:
            a = self.interval_of(t.args[0], depth - 1)
            return Interval(a.lo // t.args[1].value, a.hi // t.args[1].value, w)
        if t.op == T.ITE:
            a = self.interval_of(t.args[1], depth - 1)
            b = self.interval_of(t.args[2], depth - 1)
            return Interval(min(a.lo, b.lo), max(a.hi, b.hi), w)
        return Interval.full(w)

    def _pin(self, t: Term, interval: Interval) -> None:
        t = self.uf.find(t)
        current = self.pinned.get(t) or self._structural(t, 8)
        met = current.meet(interval)
        if met.is_empty:
            self.contradiction = True
        if (met.lo, met.hi) != (current.lo, current.hi):
            self.pinned[t] = met

    def saturate(self) -> bool:
        """Run closure + interval refinement; True iff a contradiction was
        found.  After saturation, :meth:`interval_of` reflects comparison
        facts (used by the solver's small-domain enumeration)."""
        return _saturate(self)


def refutes(assertions: list[Term]) -> bool:
    """Return True when the word-level engines refute the conjunction.

    False means "don't know" — the caller must fall back to SAT.
    """
    return saturated(assertions) is None


def saturated(assertions: list[Term]) -> FactBase | None:
    """The saturated fact base of the conjunction, or ``None`` when the
    word-level engines refute it."""
    facts = FactBase()
    for a in assertions:
        facts.assume(a)
        if facts.contradiction:
            return None
    return None if facts.saturate() else facts


def _saturate(facts: "FactBase") -> bool:
    find = facts.uf.find

    # Equality classes with conflicting values.
    # (Values are representatives, so two distinct values in one class will
    # have made union pick one; check by scanning diseqs and pins instead.)
    for a, b in facts.diseqs:
        if find(a) is find(b):
            return True

    strict = [(find(a), find(b)) for a, b in facts.strict]
    nonstrict = [(find(a), find(b)) for a, b in facts.nonstrict]

    # Immediate literal contradictions.
    for a, b in strict:
        if a is b:
            return True
        if a.is_value() and b.is_value() and not a.value < b.value:
            return True
    for a, b in nonstrict:
        if a.is_value() and b.is_value() and not a.value <= b.value:
            return True
    sstrict = [(find(a), find(b)) for a, b in facts.sstrict]
    snonstrict = [(find(a), find(b)) for a, b in facts.snonstrict]
    for a, b in sstrict:
        if a is b:
            return True
    # Signed facts participate only in cycle detection (same partial-order
    # argument applies to the signed value map).
    if _order_cycle(sstrict, snonstrict):
        return True

    # Ordering closure: a cycle containing a strict edge is unsatisfiable.
    if _order_cycle(strict, nonstrict):
        return True

    # Interval refinement from comparison facts, to a bounded fixpoint.
    for _ in range(4):
        changed = False
        for a, b in strict:
            ia, ib = facts.interval_of(a), facts.interval_of(b)
            if ia.lo >= ib.hi:
                return True
            if ib.hi - 1 < ia.hi:
                facts._pin(a, Interval(ia.lo, ib.hi - 1, ia.width))
                changed = True
            if ia.lo + 1 > ib.lo:
                facts._pin(b, Interval(ia.lo + 1, ib.hi, ib.width))
                changed = True
            if facts.contradiction:
                return True
        for a, b in nonstrict:
            ia, ib = facts.interval_of(a), facts.interval_of(b)
            if ia.lo > ib.hi:
                return True
            if ib.hi < ia.hi:
                facts._pin(a, Interval(ia.lo, ib.hi, ia.width))
                changed = True
            if ia.lo > ib.lo:
                facts._pin(b, Interval(ia.lo, ib.hi, ib.width))
                changed = True
            if facts.contradiction:
                return True
        if not changed:
            break

    # Disequalities against point intervals.
    for a, b in facts.diseqs:
        ia, ib = facts.interval_of(a), facts.interval_of(b)
        if ia.is_point and ib.is_point and ia.lo == ib.lo:
            return True

    return False


def _order_cycle(strict: list[tuple[Term, Term]], nonstrict: list[tuple[Term, Term]]) -> bool:
    """Detect a cycle containing at least one strict edge (Bellman-Ford style
    over the ≤/< graph, treating < as weight -1 and ≤ as weight 0)."""
    if not strict:
        return False
    edges = [(a, b, -1) for a, b in strict] + [(a, b, 0) for a, b in nonstrict]
    nodes: dict[Term, int] = {}
    for a, b, _ in edges:
        nodes.setdefault(a, 0)
        nodes.setdefault(b, 0)
    dist = {n: 0 for n in nodes}
    for _ in range(len(nodes)):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            return False
    return True  # still relaxing after |V| rounds => negative cycle
