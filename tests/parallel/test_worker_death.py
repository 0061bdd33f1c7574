"""A block that dies mid-proof must never corrupt the run.

``verify_case_parallel`` turns a failed block into an ``unknown`` outcome —
never a silent ``verified`` — and leaves the failed block's share of the
partitioned budget *unspent* in the run budget (consumption is absorbed
from the blocks that finished, and a failed block reported nothing).
"""

from __future__ import annotations

import pytest

from repro.parallel import scheduler
from repro.parallel.scheduler import verify_case_parallel
from repro.resilience import BudgetSpec

DIED = "RuntimeError: block died"


@pytest.fixture
def dying_blocks(monkeypatch):
    """Make the chosen block addresses raise instead of proving; every
    surviving block charges ``charge`` conflicts to its budget share, since
    block proofs this small consume none for real and a known charge makes
    the absorb arithmetic observable."""
    verify_block = scheduler._verify_block

    def install(die=lambda addr: False, charge: int = 0):
        def patched(case, pc, addr, budget, fault):
            if die(addr):
                raise RuntimeError("block died")
            report = verify_block(case, pc, addr, budget, fault)
            if budget is not None:
                budget.charge_conflicts(charge)
            return report

        monkeypatch.setattr(scheduler, "_verify_block", patched)

    return install


class TestDriverBudgetRoundTrip:
    CASE = "memcpy_arm"
    KWARGS = {"n": 3}
    ALLOWANCE = 100_000

    def _die_addr(self):
        from repro import casestudies
        from repro.parallel.config import configured

        with configured():
            case = casestudies.memcpy_arm.build(**self.KWARGS)
        return sorted(case.specs)[-1]

    def test_dead_block_lands_unknown_never_verified(self, dying_blocks):
        die_addr = self._die_addr()
        dying_blocks(die=lambda addr: addr == die_addr)
        case, report = verify_case_parallel(self.CASE, dict(self.KWARGS))
        assert report.blocks[die_addr].outcome == "unknown"
        assert report.blocks[die_addr].reason == DIED
        assert not report.ok
        assert report.outcome == "unknown"
        # The certificate agrees: the block is recorded unknown, not among
        # the verified blocks, and the proof still re-checks.
        assert report.proof.outcomes[die_addr] == "unknown"
        assert die_addr not in report.proof.blocks_verified
        from repro.logic.checker import check_proof

        check_proof(report.proof, expected_blocks=set(case.specs))
        # Surviving blocks are unaffected.
        for addr in case.specs:
            if addr != die_addr:
                assert report.blocks[addr].outcome == "verified"

    def test_dead_share_returns_to_parent_budget(self, dying_blocks):
        die_addr = self._die_addr()
        spec = BudgetSpec(conflict_allowance=self.ALLOWANCE)
        charge = 7
        dying_blocks(charge=charge)
        _case, healthy = verify_case_parallel(
            self.CASE, dict(self.KWARGS), budget_spec=spec
        )
        dying_blocks(die=lambda addr: addr == die_addr, charge=charge)
        _case, wounded = verify_case_parallel(
            self.CASE, dict(self.KWARGS), budget_spec=spec
        )
        # Every surviving block reports exactly ``charge`` conflicts.
        n_blocks = len(healthy.blocks)
        assert healthy.budget.conflicts_used == charge * n_blocks
        # The dead block reported nothing: the run absorbs one report
        # fewer, and the dead partition share returns to the pool intact.
        assert wounded.budget.conflicts_used == charge * (n_blocks - 1)
        assert wounded.budget.exhausted is None
        assert (
            wounded.budget.remaining_conflicts()
            == self.ALLOWANCE - charge * (n_blocks - 1)
        )

    def test_all_workers_dead_is_total_unknown_not_a_crash(self, dying_blocks):
        dying_blocks(die=lambda addr: True)
        spec = BudgetSpec(conflict_allowance=self.ALLOWANCE)
        case, report = verify_case_parallel(
            self.CASE, dict(self.KWARGS), budget_spec=spec
        )
        assert set(report.blocks) == set(case.specs)
        assert all(b.outcome == "unknown" for b in report.blocks.values())
        assert report.budget.conflicts_used == 0
        assert report.budget.remaining_conflicts() == self.ALLOWANCE
