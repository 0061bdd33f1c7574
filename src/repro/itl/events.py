"""Events of the Isla trace language (Fig. 4 of the paper).

..  code-block:: text

    j ::= ReadReg(r, v) | WriteReg(r, v)
        | ReadMem(vd, va, n) | WriteMem(va, vd, n)
        | AssumeReg(r, v) | DeclareConst(x, τ)
        | DefineConst(x, e) | Assert(e) | Assume(e)

Register names ``r`` are either a plain register ``ρ`` or a field access
``ρ.f`` (used for PSTATE fields on Arm).  Values and expressions are SMT
terms from :mod:`repro.smt`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..smt import Term
from ..smt.sorts import Sort


_object_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Reg:
    """A register name, optionally with a struct field (``PSTATE.EL``)."""

    base: str
    field: str | None
    #: ``hash((base, field))``, the dataclass hash, computed once: register
    #: names key every register map of the executor and the replay.  Str
    #: hashes differ between processes, so a pickled ``Reg`` recomputes it.
    _hash: int = dataclasses.field(repr=False, compare=False)

    def __init__(self, base: str, field: str | None = None) -> None:
        _object_setattr(self, "base", base)
        _object_setattr(self, "field", field)
        _object_setattr(self, "_hash", hash((base, field)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Reg, (self.base, self.field)

    def __str__(self) -> str:
        return self.base if self.field is None else f"{self.base}.{self.field}"

    @staticmethod
    def parse(text: str) -> "Reg":
        """The register ``text`` names; the first :data:`PARSE_MEMO_MAX`
        distinct texts parsed share their instances (cache and certificate
        text is untrusted, so the memo stops growing there)."""
        reg = _PARSED.get(text)
        if reg is None:
            base, _, f = text.partition(".")
            reg = Reg(base, f or None)
            if len(_PARSED) < PARSE_MEMO_MAX:
                _PARSED[text] = reg
        return reg


#: Most distinct register texts :meth:`Reg.parse` keeps.  Every model
#: declares well under a thousand register names.
PARSE_MEMO_MAX = 4096
_PARSED: dict[str, Reg] = {}


class Event:
    """Base class for ITL events."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class ReadReg(Event):
    """``ReadReg(r, v)``: the value of ``r`` was observed to be ``v``.

    In the operational semantics this *constrains* ``v`` (the read refuses to
    proceed when the machine's value differs), reflecting the constraint-based
    nature of Isla traces.
    """

    reg: Reg
    value: Term


@dataclass(frozen=True, slots=True)
class WriteReg(Event):
    """``WriteReg(r, v)``: register ``r`` is updated to ``v``."""

    reg: Reg
    value: Term


@dataclass(frozen=True, slots=True)
class ReadMem(Event):
    """``ReadMem(vd, va, n)``: an ``n``-byte read at address ``va`` observed
    data ``vd`` (little-endian)."""

    data: Term
    addr: Term
    nbytes: int


@dataclass(frozen=True, slots=True)
class WriteMem(Event):
    """``WriteMem(va, vd, n)``: an ``n``-byte write of ``vd`` at ``va``."""

    addr: Term
    data: Term
    nbytes: int


@dataclass(frozen=True, slots=True)
class AssumeReg(Event):
    """``AssumeReg(r, v)``: Isla assumed ``r = v`` while pruning the model.

    The verification must *prove* this (the opsem goes to ⊥ otherwise).
    """

    reg: Reg
    value: Term


@dataclass(frozen=True, slots=True)
class DeclareConst(Event):
    """``DeclareConst(x, τ)``: introduce a fresh symbolic constant."""

    var: Term  # a VAR term
    sort: Sort


@dataclass(frozen=True, slots=True)
class DefineConst(Event):
    """``DefineConst(x, e)``: name the value of expression ``e``."""

    var: Term  # a VAR term
    expr: Term


@dataclass(frozen=True, slots=True)
class Assert(Event):
    """``Assert(e)``: proven by Isla during symbolic execution, an
    *assumption* for the verifier (⊤ when false)."""

    expr: Term


@dataclass(frozen=True, slots=True)
class Assume(Event):
    """``Assume(e)``: assumed by Isla, an *obligation* for the verifier
    (⊥ when false)."""

    expr: Term


# Externally visible labels κ (Fig. 10): MMIO reads/writes and termination.


@dataclass(frozen=True, slots=True)
class LabelRead:
    """κ = R(a, v): read of ``v`` from unmapped (device) memory at ``a``."""

    addr: int
    data: int
    nbytes: int

    def __str__(self) -> str:
        return f"R(0x{self.addr:x}, 0x{self.data:x}, {self.nbytes})"


@dataclass(frozen=True, slots=True)
class LabelWrite:
    """κ = W(a, v): write of ``v`` to unmapped (device) memory at ``a``."""

    addr: int
    data: int
    nbytes: int

    def __str__(self) -> str:
        return f"W(0x{self.addr:x}, 0x{self.data:x}, {self.nbytes})"


@dataclass(frozen=True, slots=True)
class LabelEnd:
    """κ = E(a): execution left the instruction map at address ``a``."""

    addr: int

    def __str__(self) -> str:
        return f"E(0x{self.addr:x})"


Label = LabelRead | LabelWrite | LabelEnd
