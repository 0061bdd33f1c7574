"""A block whose automation raises must never corrupt the run.

The governed loop turns an unexpected exception in a block into an
``unknown`` outcome — never a silent ``verified`` — cuts the proof back to
the block's start, and goes on with the next block.  The job's budget is
one run budget shared by its blocks, so whatever a raising block consumed
before it raised stays charged to it.
"""

from __future__ import annotations

import pytest

from repro.casestudies import verify_case
from repro.logic.automation import ProofEngine
from repro.logic.checker import check_proof
from repro.resilience import BudgetSpec

CASE = "memcpy_arm"
KWARGS = {"n": 3}
ALLOWANCE = 100_000
DIED = "RuntimeError: block died"


@pytest.fixture
def raising_blocks(monkeypatch):
    """Make the chosen block addresses raise once their proof has run;
    every block charges ``charge`` conflicts to the run budget first, since
    block proofs this small consume none for real and a known charge makes
    the accounting observable."""
    verify_block = ProofEngine.verify_block

    def install(die=lambda addr: False, charge: int = 0):
        def patched(self, addr):
            if self.budget is not None:
                self.budget.charge_conflicts(charge)
            verify_block(self, addr)
            if die(addr):
                raise RuntimeError("block died")

        monkeypatch.setattr(ProofEngine, "verify_block", patched)

    return install


def _last_block() -> int:
    case, _report = verify_case(CASE, dict(KWARGS))
    return sorted(case.specs)[-1]


class TestRaisingBlocks:
    def test_dead_block_lands_unknown_never_verified(self, raising_blocks):
        die_addr = _last_block()
        raising_blocks(die=lambda addr: addr == die_addr)
        case, report = verify_case(CASE, dict(KWARGS))
        assert report.blocks[die_addr].outcome == "unknown"
        assert report.blocks[die_addr].reason == DIED
        assert not report.ok
        assert report.outcome == "unknown"
        # The certificate agrees: the block is recorded unknown, not among
        # the verified blocks, and the proof still re-checks.
        assert report.proof.outcomes[die_addr] == "unknown"
        assert die_addr not in report.proof.blocks_verified
        check_proof(report.proof, expected_blocks=set(case.specs))
        # Surviving blocks are unaffected.
        for addr in case.specs:
            if addr != die_addr:
                assert report.blocks[addr].outcome == "verified"

    def test_dead_block_consumption_stays_in_the_run_budget(self, raising_blocks):
        die_addr = _last_block()
        spec = BudgetSpec(conflict_allowance=ALLOWANCE)
        charge = 7
        raising_blocks(charge=charge)
        _case, healthy = verify_case(CASE, dict(KWARGS), budget_spec=spec)
        raising_blocks(die=lambda addr: addr == die_addr, charge=charge)
        _case, wounded = verify_case(CASE, dict(KWARGS), budget_spec=spec)
        n_blocks = len(healthy.blocks)
        assert n_blocks > 1
        # One budget for the run: every block's charge lands in it, the
        # raising block's too, and nothing is partitioned or handed back.
        for report in (healthy, wounded):
            assert report.budget.spec == spec
            assert report.budget.conflicts_used == charge * n_blocks
            assert report.budget.exhausted is None
            assert report.budget.remaining_conflicts() == ALLOWANCE - charge * n_blocks

    def test_all_workers_dead_is_total_unknown_not_a_crash(self, raising_blocks):
        raising_blocks(die=lambda addr: True)
        spec = BudgetSpec(conflict_allowance=ALLOWANCE)
        case, report = verify_case(CASE, dict(KWARGS), budget_spec=spec)
        assert set(report.blocks) == set(case.specs)
        assert all(b.outcome == "unknown" for b in report.blocks.values())
        assert report.proof.steps == []
        assert report.proof.blocks_verified == []
        check_proof(report.proof, expected_blocks=set(case.specs))
