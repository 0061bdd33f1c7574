"""Central architecture registry: the single source of per-arch wiring.

Every component that needs "the decoder for architecture X" — the co-sim
stack, the conformance harness, the ISA-spec loader, the CLI tools, the
frontend listing — resolves it through this table instead of hard-coding
``{"arm": ..., "riscv": ...}`` dispatch.  Adding an ISA is a pure-addition
change: ship the ``arch/<name>/`` package (``model.py``, ``decode.py``,
``encode.py``, ``asm.py``, ``abi.py``, ``spec.py``, ``templates.py``) and
register one :class:`ArchInfo` entry here; nothing else in the tree names
architectures.

Entries hold plain data (register domains, pinned registers, the NOP word)
plus *dotted paths* for everything heavier — modules are imported lazily on
first use so importing the registry never drags in the SMT stack, and so
the co-sim interpreter classes (which live in :mod:`repro.cosim.interp`)
do not create an import cycle.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass

_MODEL_CACHE: dict[str, object] = {}
_MODEL_LOCK = threading.Lock()


@dataclass(frozen=True)
class ArchInfo:
    """Everything the generic layers need to know about one architecture."""

    #: Short registry name ("arm", "riscv", "ppc") — corpus files, CLI
    #: ``--arch`` values, and co-sim job names all use this.
    name: str
    #: The :class:`~repro.sail.model.IsaModel` ``name`` ("armv8-a", ...);
    #: case studies and certificates carry this longer spelling.
    model_name: str
    #: Dotted package path, e.g. ``"repro.arch.arm"``.
    package: str
    #: The canonical NOP word (the co-sim shrinker's neutral filler).
    nop: int
    #: ``"module:Class"`` of the fast co-sim interpreter.
    interp: str
    #: Pinned registers the ITL traces are generated under, as
    #: ``((reg, value), ...)`` pairs (hashable; use :meth:`pin_dict`).
    pins: tuple = ()
    #: Registers random state generation draws values for.
    vary: tuple = ()
    #: One-bit condition/flag registers drawn separately (0/1 only).
    flags: tuple = ()
    #: General-purpose registers (a letter and the register number) that
    #: co-sim directed words draw register operands from.
    operand_regs: tuple = ()

    # -- lazy module resolution -------------------------------------------

    def _module(self, leaf: str):
        return importlib.import_module(f"{self.package}.{leaf}")

    def model(self):
        """The (process-wide, cached) IsaModel instance."""
        try:
            return _MODEL_CACHE[self.name]
        except KeyError:
            pass
        with _MODEL_LOCK:
            if self.name not in _MODEL_CACHE:
                module = importlib.import_module(self.package)
                cls = getattr(module, self.model_class)
                _MODEL_CACHE[self.name] = cls()
            return _MODEL_CACHE[self.name]

    @property
    def model_class(self) -> str:
        # "repro.arch.arm" -> "ArmModel"; every arch package exports one.
        leaf = self.package.rsplit(".", 1)[1]
        return f"{leaf.capitalize()}Model"

    def decode(self):
        return self._module("decode")

    def encode(self):
        return self._module("encode")

    def asm(self):
        return self._module("asm")

    def abi(self):
        return self._module("abi")

    def templates(self):
        """The per-arch template provider module (co-sim field domains
        plus the conformance suite's directed templates)."""
        return self._module("templates")

    def spec(self):
        """The declarative :class:`~repro.analysis.isaspec.IsaSpec`."""
        return self._module("spec").build_spec()

    def spec_arms(self) -> tuple:
        """The spec's :class:`~repro.analysis.isaspec.ArmSpec` tuple, without
        building the whole :class:`~repro.analysis.isaspec.IsaSpec`."""
        return self._module("spec").ARMS

    def interp_class(self):
        module_path, _, cls_name = self.interp.partition(":")
        return getattr(importlib.import_module(module_path), cls_name)

    def decode_arms(self) -> tuple:
        """Every decode-arm name, from the decoder's ``DECODE_ARMS`` export."""
        return tuple(self.decode().DECODE_ARMS)

    def pin_dict(self) -> dict:
        return dict(self.pins)


_REGISTRY: dict[str, ArchInfo] = {}


def register(info: ArchInfo) -> None:
    if info.name in _REGISTRY:
        raise ValueError(f"architecture {info.name!r} already registered")
    _REGISTRY[info.name] = info


def names() -> tuple:
    """All registered short names, sorted."""
    return tuple(sorted(_REGISTRY))


def infos() -> tuple:
    """All registry entries, sorted by name."""
    return tuple(_REGISTRY[name] for name in names())


def get(name: str) -> ArchInfo:
    """The entry for a short name; raises ``KeyError`` with the choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r} (registered: {', '.join(names())})"
        ) from None


def find(name: str) -> ArchInfo:
    """Resolve a short name *or* a model name ("armv8-a" -> arm)."""
    info = _REGISTRY.get(name)
    if info is not None:
        return info
    for info in _REGISTRY.values():
        if info.model_name == name:
            return info
    raise KeyError(
        f"unknown architecture {name!r} (registered: {', '.join(names())})"
    )


def for_case(case_name: str, default: str = "arm") -> ArchInfo:
    """Infer the architecture of a case study from its name suffix."""
    for name in names():
        if name in case_name.split("_"):
            return _REGISTRY[name]
    return _REGISTRY[default]


register(ArchInfo(
    name="arm",
    model_name="armv8-a",
    package="repro.arch.arm",
    nop=0xD503201F,
    interp="repro.cosim.interp:ArmInterp",
    pins=(("PSTATE.EL", 2), ("PSTATE.SP", 1), ("SCTLR_EL2", 0)),
    vary=tuple(f"R{i}" for i in range(31)) + ("SP_EL2",),
    flags=("PSTATE.N", "PSTATE.Z", "PSTATE.C", "PSTATE.V"),
    operand_regs=tuple(f"R{i}" for i in range(31)),  # x31 is SP or XZR
))

register(ArchInfo(
    name="ppc",
    model_name="ppc64",
    package="repro.arch.ppc",
    nop=0x60000000,  # ori r0, r0, 0
    interp="repro.cosim.interp:PpcInterp",
    pins=(),
    vary=tuple(f"r{i}" for i in range(32))
    + ("CTR", "LR", "XER")
    + tuple(f"CR{i}" for i in range(8)),
    flags=(),
    operand_regs=tuple(f"r{i}" for i in range(32)),
))

register(ArchInfo(
    name="riscv",
    model_name="riscv64",
    package="repro.arch.riscv",
    nop=0x00000013,  # addi x0, x0, 0
    interp="repro.cosim.interp:RiscvInterp",
    pins=(),
    vary=tuple(f"x{i}" for i in range(1, 32)),
    flags=(),
    operand_regs=("x5", "x6", "x7", "x28", "x29", "x30"),  # temporaries t0-t5
))
