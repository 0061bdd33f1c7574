"""The label-specification language for externally visible behaviour.

The ``spec(s)`` assertion (§4.2) constrains the sequence of visible labels —
MMIO reads/writes and termination.  Specifications are built from:

- :class:`SStop` — no further visible events are allowed (termination only);
- :class:`SAnything` — any behaviour (the trivial spec);
- :class:`SRead` — ``scons(R(a, b), k(b))``: a read of some value ``b`` from
  device address ``a``, continuing with ``k(b)``;
- :class:`SWrite` — ``scons(W(a, v), s)``: a write of exactly ``v``;
- :class:`SChoice` — a continuation that depends on a condition over
  previously bound values (the ``b[5] ? ... : ...`` of the UART spec);
- :class:`SRec` — the least fixpoint combinator ``srec`` for looping specs.

The UART putc specification from §6 is expressed as::

    def uart_spec(c, after):
        def body(loop):
            return SRead(LSR, 4, lambda b: SChoice(
                bit5_set(b),
                SWrite(IO, 4, zero_extend(c, 32), after),
                loop,
            ))
        return SRec(body)

Specs are consumed during verification (each MMIO event peels one layer) and
can also be *run* against concrete label sequences (:func:`spec_allows`),
which is how the adequacy harness checks Theorem 1 empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..itl.events import Label, LabelEnd, LabelRead, LabelWrite
from ..smt import builder as B
from ..smt.interp import evaluate
from ..smt.terms import Term


class LabelSpec:
    """Base class for label specifications."""

    __slots__ = ()


@dataclass(frozen=True)
class SStop(LabelSpec):
    """No more visible IO; termination (E labels) is allowed."""


@dataclass(frozen=True)
class SAnything(LabelSpec):
    """Any visible behaviour (used when a case study has no IO)."""


@dataclass(frozen=True)
class SRead(LabelSpec):
    """Expect a read of ``nbytes`` at ``addr``; bind the value read."""

    addr: Term
    nbytes: int
    cont: Callable[[Term], LabelSpec]


@dataclass(frozen=True)
class SWrite(LabelSpec):
    """Expect a write of exactly ``value`` (width 8*nbytes) at ``addr``."""

    addr: Term
    nbytes: int
    value: Term
    cont: LabelSpec


@dataclass(frozen=True)
class SChoice(LabelSpec):
    """Continue as ``then`` when ``cond`` holds, else as ``els``."""

    cond: Term
    then: LabelSpec
    els: LabelSpec


class SRec(LabelSpec):
    """``srec(F)``: the spec ``F`` applied to itself (guarded recursion).

    The recursive occurrence is this very object, so loop invariants can
    compare spec states by identity.
    """

    __slots__ = ("fn", "_unfolded")

    def __init__(self, fn: Callable[["SRec"], LabelSpec]) -> None:
        self.fn = fn
        self._unfolded: LabelSpec | None = None

    def unfold(self) -> LabelSpec:
        if self._unfolded is None:
            self._unfolded = self.fn(self)
        return self._unfolded

    def __repr__(self) -> str:
        return "srec(...)"


def head_normal(spec: LabelSpec, decide) -> LabelSpec:
    """Unfold ``SRec`` and resolve ``SChoice`` using ``decide(cond) ->
    True/False/None`` until the spec exposes a constructor."""
    fuel = 64
    while fuel:
        fuel -= 1
        if isinstance(spec, SRec):
            spec = spec.unfold()
            continue
        if isinstance(spec, SChoice):
            outcome = decide(spec.cond)
            if outcome is None:
                raise SpecStuck(f"cannot decide spec condition {spec.cond!r}")
            spec = spec.then if outcome else spec.els
            continue
        return spec
    raise SpecStuck("spec did not reach head-normal form (unguarded srec?)")


class SpecStuck(Exception):
    """The spec cannot be driven further (condition undecided, or shape
    mismatch with the observed label)."""


def spec_allows(spec: LabelSpec, labels: list[Label], env: dict | None = None) -> bool:
    """Concrete run: does the spec allow this (finite prefix of a) label
    sequence?  Used by the adequacy harness."""
    env = dict(env or {})

    def decide(cond: Term):
        try:
            return bool(evaluate(cond, env))
        except Exception:
            return None

    for label in labels:
        if isinstance(label, LabelEnd):
            return True  # termination is always allowed by our specs
        try:
            spec = head_normal(spec, decide)
        except SpecStuck:
            return False
        if isinstance(spec, SAnything):
            return True
        if isinstance(spec, SStop):
            return False  # an IO label where none is allowed
        if isinstance(spec, SRead):
            if not isinstance(label, LabelRead):
                return False
            if evaluate(spec.addr, env) != label.addr or spec.nbytes != label.nbytes:
                return False
            spec = spec.cont(B.bv(label.data, 8 * label.nbytes))
            continue
        if isinstance(spec, SWrite):
            if not isinstance(label, LabelWrite):
                return False
            if evaluate(spec.addr, env) != label.addr or spec.nbytes != label.nbytes:
                return False
            if evaluate(spec.value, env) != label.data:
                return False
            spec = spec.cont
            continue
        return False
    return True
