"""Incorrectness specs: under-approximate ``reaches_bad_state`` refutations.

Where the Islaris separation logic proves *no* execution goes wrong, an
incorrectness spec proves the opposite polarity: **some** execution from a
given start state reaches a bad state.  In the under-approximate reading
(O'Hearn's incorrectness logic, IsaBIL's refutation idiom), a proof of
``reaches_bad_state`` is simply a concrete witness execution — so the
proof object is a :class:`RefutationCertificate` recording the start
state, program, step count, and the bad-state predicate.

Trust story mirrors the co-sim design: the *finder* may be anything —
here the fast co-sim interpreter hunts for a witness — but the
certificate is only accepted after :func:`check_refutation` replays it
against the authoritative concrete mini-Sail model (``step_concrete``),
the same semantics the proof stack's refinement theorem is stated over.
A certificate the authoritative model does not confirm is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .archs import COSIM_ARCHS
from .interp import CosimDomainError, CosimUnsupported, interp_for
from .state import ProgramCase, build_machine_state
from ..itl.events import Reg
from ..sail.iface import ModelError

CERT_VERSION = 1


class RefutationError(Exception):
    """No witness execution reaching the bad state was found."""


class RefutationCheckFailure(Exception):
    """The authoritative replay did not confirm the certificate."""


@dataclass(frozen=True)
class BadStatePred:
    """A conjunction of register / memory-byte / PC equalities.

    ``regs`` maps register names to required values; ``mem`` maps byte
    addresses to required byte values; ``pc`` (optional) pins the program
    counter.  Empty predicates are rejected — an always-true "bad state"
    is not a refutation of anything.
    """

    regs: tuple = ()
    mem: tuple = ()
    pc: int | None = None

    def __post_init__(self):
        if not self.regs and not self.mem and self.pc is None:
            raise ValueError("empty bad-state predicate")

    @classmethod
    def of(cls, regs=None, mem=None, pc=None) -> "BadStatePred":
        return cls(
            regs=tuple(sorted((regs or {}).items())),
            mem=tuple(sorted((mem or {}).items())),
            pc=pc,
        )

    def holds(self, state, pc_reg) -> bool:
        for name, value in self.regs:
            if state.read_reg(Reg.parse(name)) != value:
                return False
        for addr, byte in self.mem:
            if not state.mem_mapped(addr, 1) or state.read_mem(addr, 1) != byte:
                return False
        if self.pc is not None and state.read_reg(pc_reg) != self.pc:
            return False
        return True

    def to_json(self) -> dict:
        out: dict = {
            "regs": {name: hex(value) for name, value in self.regs},
            "mem": {hex(addr): byte for addr, byte in self.mem},
        }
        if self.pc is not None:
            out["pc"] = hex(self.pc)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BadStatePred":
        return cls.of(
            regs={k: int(v, 16) for k, v in data.get("regs", {}).items()},
            mem={int(a, 16): b for a, b in data.get("mem", {}).items()},
            pc=int(data["pc"], 16) if "pc" in data else None,
        )


@dataclass(frozen=True)
class RefutationCertificate:
    """A checkable witness that ``case`` reaches ``pred`` in ``steps`` steps."""

    arch: str
    case: ProgramCase
    pred: BadStatePred
    steps: int
    version: int = CERT_VERSION

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "arch": self.arch,
            "case": self.case.to_json(),
            "pred": self.pred.to_json(),
            "steps": self.steps,
        }

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, data: dict) -> "RefutationCertificate":
        if data.get("version") != CERT_VERSION:
            raise RefutationCheckFailure(
                f"unsupported certificate version {data.get('version')!r}"
            )
        return cls(
            arch=data["arch"],
            case=ProgramCase.from_json(data["case"]),
            pred=BadStatePred.from_json(data["pred"]),
            steps=int(data["steps"]),
        )


def reaches_bad_state(
    arch_name: str,
    case: ProgramCase,
    pred: BadStatePred,
    max_steps: int = 64,
) -> RefutationCertificate:
    """Prove the incorrectness spec by *finding* a witness execution.

    The fast interpreter (untrusted) runs the program from ``case`` and
    stops at the first state satisfying ``pred``; the resulting
    certificate must still pass :func:`check_refutation` before anything
    downstream may rely on it.  Raises :class:`RefutationError` when no
    prefix of the bounded execution reaches the bad state.
    """
    arch = COSIM_ARCHS[arch_name]
    state = build_machine_state(arch, case)
    interp = interp_for(arch, state)
    pc_reg = arch.model.pc_reg
    if pred.holds(state, pc_reg):
        return RefutationCertificate(arch=arch_name, case=case.copy(), pred=pred, steps=0)
    for step in range(1, max_steps + 1):
        pc = state.read_reg(pc_reg)
        if pc is None or not state.mem_mapped(pc, 4):
            break
        try:
            interp.step()
        except (CosimUnsupported, CosimDomainError) as exc:
            raise RefutationError(f"witness search left the modelled subset: {exc}") from exc
        if pred.holds(state, pc_reg):
            return RefutationCertificate(
                arch=arch_name, case=case.copy(), pred=pred, steps=step
            )
    raise RefutationError(
        f"no execution of ≤{max_steps} steps reaches the bad state"
    )


def check_refutation(cert: RefutationCertificate) -> bool:
    """Replay a certificate against the authoritative concrete model.

    This is the *trusted* half: the witness execution is re-run through
    ``IsaModel.step_concrete`` — the same concrete semantics the
    refinement theorem compares the ITL opsem against — and the bad-state
    predicate is re-evaluated on the authoritative final state.  Returns
    True on confirmation; raises :class:`RefutationCheckFailure` otherwise.
    """
    try:
        arch = COSIM_ARCHS[cert.arch]
    except KeyError as exc:
        raise RefutationCheckFailure(f"unknown architecture {cert.arch!r}") from exc
    state = build_machine_state(arch, cert.case)
    pc_reg = arch.model.pc_reg
    for step in range(cert.steps):
        pc = state.read_reg(pc_reg)
        if pc is None or not state.mem_mapped(pc, 4):
            raise RefutationCheckFailure(
                f"authoritative replay ran off the program at step {step}"
            )
        try:
            arch.model.step_concrete(state)
        except ModelError as exc:
            raise RefutationCheckFailure(
                f"authoritative replay failed at step {step}: {exc}"
            ) from exc
    if not pred_holds_final(cert, state, pc_reg):
        raise RefutationCheckFailure(
            "bad-state predicate does not hold on the authoritative final state"
        )
    return True


def pred_holds_final(cert: RefutationCertificate, state, pc_reg) -> bool:
    return cert.pred.holds(state, pc_reg)
