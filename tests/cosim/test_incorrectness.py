"""Incorrectness specs: witness search, certificates, authoritative replay.

The security-relevant property is the last class: a certificate the
authoritative concrete model does not confirm must be *rejected*, no
matter what the (untrusted) fast-interpreter finder claimed.
"""

from __future__ import annotations

import pytest

from repro.cosim.archs import COSIM_ARCHS
from repro.cosim.incorrectness import (
    BadStatePred,
    RefutationCertificate,
    RefutationCheckFailure,
    RefutationError,
    check_refutation,
    reaches_bad_state,
)
from repro.cosim.state import ProgramCase

ARM = COSIM_ARCHS["arm"]
RISCV = COSIM_ARCHS["riscv"]


def _riscv_case(lines, regs=None, mem=None):
    words = [RISCV.asm.assemble_line(line) for line in lines]
    return ProgramCase(regs=dict(regs or {}), mem=dict(mem or {}), words=words)


def _arm_case(lines, regs=None, mem=None):
    words = [ARM.asm.assemble_line(line) for line in lines]
    regs = dict(ARM.pins) | dict(regs or {})
    return ProgramCase(regs=regs, mem=dict(mem or {}), words=words)


class TestWitnessSearch:
    def test_riscv_reaches_register_bad_state(self):
        case = _riscv_case(["add t0, t0, t1"], regs={"x5": 5, "x6": 2})
        cert = reaches_bad_state("riscv", case, BadStatePred.of(regs={"x5": 7}))
        assert cert.steps == 1
        assert check_refutation(cert) is True

    def test_arm_reaches_register_bad_state(self):
        case = _arm_case(["add x1, x2, #5"], regs={"R2": 10})
        cert = reaches_bad_state("arm", case, BadStatePred.of(regs={"R1": 15}))
        assert cert.steps == 1
        assert check_refutation(cert) is True

    def test_memory_and_pc_predicates(self):
        case = _riscv_case(
            ["sb t0, 0(t1)", "add t2, t2, t2"],
            regs={"x5": 0xAB, "x6": 0x5008, "x7": 3},
            mem={0x5008: 0},  # mapped: unmapped stores route to the device
        )
        pred = BadStatePred.of(mem={0x5008: 0xAB}, pc=0x1008)
        cert = reaches_bad_state("riscv", case, pred)
        assert cert.steps == 2
        assert check_refutation(cert) is True

    def test_witness_can_be_the_start_state(self):
        case = _riscv_case(["add t0, t0, t1"], regs={"x5": 9})
        cert = reaches_bad_state("riscv", case, BadStatePred.of(regs={"x5": 9}))
        assert cert.steps == 0
        assert check_refutation(cert) is True

    def test_unreachable_bad_state_raises(self):
        case = _riscv_case(["add t0, t0, t1"], regs={"x5": 1, "x6": 1})
        with pytest.raises(RefutationError):
            reaches_bad_state("riscv", case, BadStatePred.of(regs={"x5": 999}),
                              max_steps=8)


class TestCertificates:
    def test_json_roundtrip_preserves_the_proof(self):
        case = _riscv_case(["add t0, t0, t1"], regs={"x5": 5, "x6": 2})
        cert = reaches_bad_state("riscv", case, BadStatePred.of(regs={"x5": 7}))
        restored = RefutationCertificate.from_json(cert.to_json())
        assert restored.canonical() == cert.canonical()
        assert check_refutation(restored) is True

    def test_wrong_version_is_rejected(self):
        case = _riscv_case(["add t0, t0, t1"], regs={"x5": 5, "x6": 2})
        cert = reaches_bad_state("riscv", case, BadStatePred.of(regs={"x5": 7}))
        data = cert.to_json()
        data["version"] = 99
        with pytest.raises(RefutationCheckFailure):
            RefutationCertificate.from_json(data)

    def test_empty_predicate_is_rejected(self):
        with pytest.raises(ValueError):
            BadStatePred.of()


class TestAuthoritativeReplayRejectsForgeries:
    def test_forged_final_value_fails(self):
        """A certificate claiming a bad state the real semantics never
        reach must be refused by the trusted replay."""
        case = _riscv_case(["add t0, t0, t1"], regs={"x5": 5, "x6": 2})
        forged = RefutationCertificate(
            arch="riscv", case=case,
            pred=BadStatePred.of(regs={"x5": 1234}), steps=1,
        )
        with pytest.raises(RefutationCheckFailure):
            check_refutation(forged)

    def test_step_count_past_the_program_fails(self):
        case = _riscv_case(["add t0, t0, t1"], regs={"x5": 5, "x6": 2})
        forged = RefutationCertificate(
            arch="riscv", case=case,
            pred=BadStatePred.of(regs={"x5": 7}), steps=40,
        )
        with pytest.raises(RefutationCheckFailure):
            check_refutation(forged)

    def test_unknown_architecture_fails(self):
        case = _riscv_case(["add t0, t0, t1"])
        forged = RefutationCertificate(
            arch="mips", case=case, pred=BadStatePred.of(regs={"x5": 7}), steps=1,
        )
        with pytest.raises(RefutationCheckFailure):
            check_refutation(forged)
