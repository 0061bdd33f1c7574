"""Tests for the independent proof checker (``repro.logic.checker``).

The checker decides every judgment ``assumptions ⊨ goal`` with one
refutation query, ``assumptions ∧ ¬goal``.  These tests pin that each
verdict of that query maps to the right accounting — including the
vacuous case, which needs no separate consistency query — that no
second query per distinct judgment creeps back in, and that a
certificate's residuals cannot make the checker work without bound.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.logic import checker
from repro.logic.checker import CheckFailure, check_certificate, check_proof
from repro.logic.proof import Proof, ProofStep, SideCondition
from repro.resilience.outcome import DEGRADED, ResidualObligation
from repro.smt import builder as B
from repro.smt.solver import UNKNOWN, Solver

GOLDEN_CERTS = (
    Path(__file__).resolve().parents[2] / "perfbench" / "golden_certs.json"
)

BLOCK = 0x1000
X = B.bv_var("x", 64)

#: Contradictory assumptions: the solver has to find the conflict, no
#: constant folding reaches it.
CONTRADICTORY = (B.eq(X, B.bv(1, 64)), B.eq(X, B.bv(2, 64)))
BOUNDED = (B.bvult(X, B.bv(5, 64)),)
ENTAILED = B.bvult(X, B.bv(10, 64))
REFUTABLE = B.bvult(X, B.bv(3, 64))


def _proof(conditions=(), residuals=()) -> Proof:
    proof = Proof()
    proof.add(
        ProofStep(
            "hoare-assume",
            "test",
            BLOCK,
            (),
            tuple(
                SideCondition(assumptions, goal, f"condition {i}")
                for i, (assumptions, goal) in enumerate(conditions)
            ),
        )
    )
    proof.residual_obligations = [
        ResidualObligation(BLOCK, f"residual {i}", goal, assumptions, "test")
        for i, (assumptions, goal) in enumerate(residuals)
    ]
    if residuals:
        proof.outcomes[BLOCK] = DEGRADED
    return proof


class TestSideConditions:
    def test_vacuous_side_condition_is_accepted(self):
        report = check_proof(_proof([(CONTRADICTORY, B.false())]))
        assert report.side_conditions_checked == 1

    def test_entailed_side_condition_is_accepted(self):
        report = check_proof(_proof([(BOUNDED, ENTAILED)]))
        assert report.side_conditions_checked == 1

    def test_refutable_side_condition_is_rejected(self):
        with pytest.raises(CheckFailure, match="condition 0"):
            check_proof(_proof([(BOUNDED, REFUTABLE)]))


class TestResiduals:
    def test_vacuous_residual_is_discharged(self):
        report = check_proof(_proof(residuals=[(CONTRADICTORY, B.false())]))
        assert (report.residuals_discharged, report.residuals_remaining) == (1, 0)

    def test_entailed_residual_is_discharged(self):
        report = check_proof(_proof(residuals=[(BOUNDED, ENTAILED)]))
        assert (report.residuals_discharged, report.residuals_remaining) == (1, 0)

    def test_refutable_residual_is_rejected(self):
        with pytest.raises(CheckFailure, match="refutable"):
            check_proof(_proof(residuals=[(BOUNDED, REFUTABLE)]))


class _UndecidedSolver(Solver):
    def check(self, *extra):
        return UNKNOWN


class TestUnknownFailsClosed:
    def test_undecided_side_condition_is_rejected(self, monkeypatch):
        monkeypatch.setattr(checker, "Solver", _UndecidedSolver)
        with pytest.raises(CheckFailure):
            check_proof(_proof([(BOUNDED, ENTAILED)]))

    def test_undecided_residual_remains(self, monkeypatch):
        monkeypatch.setattr(checker, "Solver", _UndecidedSolver)
        report = check_proof(_proof(residuals=[(BOUNDED, ENTAILED)]))
        assert (report.residuals_discharged, report.residuals_remaining) == (0, 1)


class TestOneQueryPerJudgment:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        class CountingSolver(Solver):
            def check(self, *extra):
                calls.append(extra)
                return super().check(*extra)

        monkeypatch.setattr(checker, "Solver", CountingSolver)
        return calls

    def test_synthetic_proof(self, counted):
        proof = _proof(
            [(CONTRADICTORY, B.false()), (BOUNDED, ENTAILED), ((), B.true())],
            residuals=[(CONTRADICTORY, B.false()), (BOUNDED, ENTAILED)],
        )
        report = check_proof(proof)
        assert report.side_conditions_checked == 3
        assert report.residuals_discharged == 2
        # The residuals repeat two side conditions: three distinct judgments.
        assert len(counted) == 3

    def test_a_repeated_judgment_is_refuted_once(self, counted):
        proof = _proof(
            [(BOUNDED, ENTAILED)] * 3, residuals=[(BOUNDED, ENTAILED)] * 2
        )
        report = check_proof(proof)
        assert report.side_conditions_checked == 3
        assert report.residuals_discharged == 2
        assert len(counted) == 1

    def test_case_study_proof(self, counted):
        from repro.casestudies import verify_case

        proof = verify_case("memcpy_riscv")[1].proof
        counted.clear()  # the automation's own queries do not count
        report = check_proof(proof)
        judgments = [c for s in proof.steps for c in s.side_conditions]
        judgments += proof.residual_obligations
        assert report.side_conditions_checked > 0
        assert len(judgments) == (
            report.side_conditions_checked
            + report.residuals_discharged
            + report.residuals_remaining
        )
        assert len(counted) == len(
            {(tuple(j.assumptions), j.goal) for j in judgments}
        )


class TestWorkIsBounded:
    """A certificate is untrusted input: no side condition may hold the
    checker for long, and the bound must not reject an honest proof."""

    def test_hostile_side_condition_is_rejected_quickly(self):
        goal = "(= (bvmul x y) (bvmul y x))"
        text = json.dumps({
            "version": 1,
            "blocks_verified": [0],
            "steps": [{
                "rule": "block-start", "detail": "0x0", "block": 0,
                "path": [],
                "side_conditions": [{
                    "assumptions": [],
                    "goal": {"sexpr": goal, "vars": {"x": "bv8", "y": "bv8"}},
                    "description": "multiplication commutes",
                }],
            }],
        })
        started = time.monotonic()
        with pytest.raises(CheckFailure, match="multiplication commutes"):
            check_certificate(text)
        assert time.monotonic() - started < 10.0

    def test_hostile_residuals_share_one_allowance(self):
        residuals = []
        for i in range(10):
            x, y = B.bv_var(f"x{i}", 8), B.bv_var(f"y{i}", 8)
            residuals.append(((), B.eq(B.bvmul(x, y), B.bvmul(y, x))))
        text = _proof(residuals=residuals).to_json()
        started = time.monotonic()
        with pytest.raises(CheckFailure, match="allowance"):
            check_certificate(text)
        assert time.monotonic() - started < 3.0

    def test_costly_side_conditions_share_one_allowance(self):
        """Each of these commutativity goals costs a few hundred conflicts,
        under the per-query bound: fifty of them once took 4.45 s and were
        accepted."""
        conditions = []
        for i in range(50):
            x, y = B.bv_var(f"x{i}", 5), B.bv_var(f"y{i}", 5)
            conditions.append(((), B.eq(B.bvmul(x, y), B.bvmul(y, x))))
        text = _proof(conditions=conditions).to_json()
        assert len(text) < 8_000
        started = time.monotonic()
        with pytest.raises(CheckFailure, match="allowance"):
            check_certificate(text)
        assert time.monotonic() - started < 2.0

    def test_every_golden_certificate_is_accepted(self):
        from repro.casestudies import verify_case

        golden = json.loads(GOLDEN_CERTS.read_text())["certificates"]
        assert len(golden) == 51
        for key, entry in sorted(golden.items()):
            name, _, n = key.partition(":")
            _case, report = verify_case(name, {"n": int(n)} if n else {})
            text = report.proof.to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == entry["digest"]
            check_certificate(text)  # a rejection raises CheckFailure
