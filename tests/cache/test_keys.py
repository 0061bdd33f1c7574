"""Key derivation: every input the computation depends on, nothing more."""

from __future__ import annotations

import importlib

import pytest

from repro.arch.arm import ArmModel
from repro.arch.riscv import RiscvModel
from repro.cache import (
    keys,
    model_fingerprint,
    opcode_signature,
    trace_key,
)
from repro.isla import Assumptions
from repro.itl.events import Reg
from repro.smt import builder as B

ARM = ArmModel()
RISCV = RiscvModel()


def _pinned(name: str, value: int) -> Assumptions:
    out = Assumptions()
    out.pin(name, value, ARM.regfile.width_of(Reg.parse(name)))
    return out


class TestModelFingerprint:
    def test_stable(self):
        assert model_fingerprint(ARM) == model_fingerprint(ArmModel())

    def test_distinct_models(self):
        assert model_fingerprint(ARM) != model_fingerprint(RISCV)


class TestOpcodeSignature:
    def test_concrete(self):
        assert opcode_signature(0x8B030041) == "#8b030041"

    def test_concrete_term_matches_int(self):
        assert opcode_signature(B.bv(0x13, 32)) == opcode_signature(0x13)

    def test_symbolic_covers_sorts(self):
        sym = B.concat(B.bv_var("hi", 16), B.bv(0x13, 16))
        sig = opcode_signature(sym)
        assert "hi" in sig
        wide = B.concat(B.bv_var("hi", 24), B.bv(0x13, 8))
        assert sig != opcode_signature(wide)


class TestTraceKey:
    def test_deterministic(self):
        a = trace_key(ARM, 0x8B030041, _pinned("PSTATE.EL", 2))
        b = trace_key(ARM, 0x8B030041, _pinned("PSTATE.EL", 2))
        assert a == b

    def test_sensitive_to_every_input(self):
        base = trace_key(ARM, 0x8B030041, _pinned("PSTATE.EL", 2))
        assert base != trace_key(ARM, 0x8B030042, _pinned("PSTATE.EL", 2))
        assert base != trace_key(ARM, 0x8B030041, _pinned("PSTATE.EL", 1))
        assert base != trace_key(ARM, 0x8B030041, None)
        assert base != trace_key(
            ARM, 0x8B030041, _pinned("PSTATE.EL", 2), name_prefix="w"
        )

    def test_constraint_predicates_compared_extensionally(self):
        """Two syntactically different callables, one constraint term."""

        def pred_a(v):
            return B.eq(v, B.bv(0, 64))

        def pred_b(value):
            return B.eq(value, B.bv(0, 64))

        a = Assumptions().constrain("R0", pred_a)
        b = Assumptions().constrain("R0", pred_b)
        assert trace_key(ARM, 0x13, a) == trace_key(ARM, 0x13, b)

        def pred_c(v):
            return B.eq(v, B.bv(1, 64))

        c = Assumptions().constrain("R0", pred_c)
        assert trace_key(ARM, 0x13, a) != trace_key(ARM, 0x13, c)


class TestSemanticModules:
    """The modules hashed into every trace key fail closed."""

    def test_every_listed_module_imports(self):
        for name in keys._SEMANTIC_MODULES:
            importlib.import_module(name)

    def test_a_stale_entry_raises_instead_of_dropping_out(self, monkeypatch):
        stale = keys._SEMANTIC_MODULES + ("repro.isla.no_such_module",)
        monkeypatch.setattr(keys, "_SEMANTIC_MODULES", stale)
        monkeypatch.setattr(keys, "_model_fingerprints", {})
        with pytest.raises(ImportError):
            model_fingerprint(ARM)

    def test_an_optional_module_may_be_missing(self):
        assert keys._module_source("repro.no_such") == "<no-source:repro.no_such>"
