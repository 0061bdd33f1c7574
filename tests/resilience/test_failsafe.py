"""The fail-safe invariant, tested under seeded fault storms.

Faults injected into the solver, the cache, the bit-blaster, and the proof
search may *downgrade* a block's outcome (verified → degraded → unknown →
failed) but must never manufacture a spurious ``verified``: whatever the
governed run claims verified must carry a complete certificate that the
independent checker — always run fault-free — re-validates.  The schedules
are deterministic functions of the seed, so every run here is reproducible
bit-for-bit.
"""

import pytest

from repro.arch.riscv.model import PC
from repro.casestudies import binsearch_riscv, memcpy_riscv
from repro.logic.automation import verify_program
from repro.logic.checker import check_proof
from repro.resilience import (
    DEGRADED,
    FAILED,
    UNKNOWN,
    VERIFIED,
    Budget,
    BudgetSpec,
    FaultInjector,
    inject,
)
from repro.smt.solver import clear_check_cache

RANK = {VERIFIED: 3, DEGRADED: 2, UNKNOWN: 1, FAILED: 0}

#: Every non-verified outcome must name its cause with one of these markers
#: (exhausted budget, injected fault, or an undecided query's reason).
CAUSE_MARKERS = (
    "fault:",
    "budget",
    "conflict-limit",
    "unsupported",
    "transient",
    "solver-unknown",
    "undischarged",
    "continuation",
    "side condition",
    "spec",
    "no matching",
    "cannot",
)

MEMCPY_SEEDS = range(0, 60)
BINSEARCH_SEEDS = range(60, 105)
FAULT_RATE = 0.10


@pytest.fixture(scope="module")
def memcpy_case():
    return memcpy_riscv.build(n=2)


@pytest.fixture(scope="module")
def binsearch_case():
    return binsearch_riscv.build()


def _governed(case):
    return verify_program(case.frontend.traces, case.specs, PC)


def _assert_failsafe(case, baseline, seeds):
    """Run one seeded fault schedule per seed and check the invariant."""
    assert baseline.ok, "the fault-free baseline must verify"
    downgraded_runs = 0
    for seed in seeds:
        injector = FaultInjector(seed, rate=FAULT_RATE)
        with inject(injector):
            report = _governed(case)
        assert set(report.blocks) == set(baseline.blocks)
        for addr, block in report.blocks.items():
            base = baseline.blocks[addr].outcome
            assert RANK[block.outcome] <= RANK[base], (
                f"seed {seed}: block 0x{addr:x} moved UP the lattice "
                f"({base} -> {block.outcome}) — spurious result"
            )
            if block.outcome != VERIFIED:
                assert block.reason, (
                    f"seed {seed}: non-verified block 0x{addr:x} has no reason"
                )
                assert any(m in block.reason for m in CAUSE_MARKERS), (
                    f"seed {seed}: uninformative reason {block.reason!r}"
                )
        if not injector.log:
            # No fault actually fired: the run must match the baseline.
            assert report.outcome == baseline.outcome, f"seed {seed}"
        if report.outcome != VERIFIED:
            downgraded_runs += 1
        # Whatever the faulty run claims must stand on its own: the checker
        # runs outside injection and re-proves every recorded side condition
        # and residual with a fresh, cache-free solver.
        check_proof(report.proof, expected_blocks=set(case.specs))
    # The storm must actually bite for the sweep to mean anything.
    assert downgraded_runs > 0, "fault rate too low: no run was ever downgraded"


class TestFailSafeUnderFaultStorm:
    def test_memcpy_sweep(self, memcpy_case):
        baseline = _governed(memcpy_case)
        _assert_failsafe(memcpy_case, baseline, MEMCPY_SEEDS)

    def test_binsearch_sweep(self, binsearch_case):
        baseline = _governed(binsearch_case)
        _assert_failsafe(binsearch_case, baseline, BINSEARCH_SEEDS)

    def test_schedules_are_deterministic(self, memcpy_case):
        outcomes = []
        logs = []
        for _ in range(2):
            clear_check_cache()  # cache state perturbs fault-site visit order
            injector = FaultInjector(7, rate=0.15)
            with inject(injector):
                report = _governed(memcpy_case)
            outcomes.append(
                {addr: (b.outcome, b.reason) for addr, b in report.blocks.items()}
            )
            logs.append(list(injector.log))
        assert outcomes[0] == outcomes[1]
        assert logs[0] == logs[1]


class TestBudgetExhaustionOutcomes:
    def test_zero_conflict_allowance_degrades_not_crashes(self, memcpy_case):
        # From a cold check cache, so the proof needs the CDCL core: verdicts
        # cached by earlier runs in the process would need no conflict.
        clear_check_cache()
        budget = Budget(BudgetSpec(conflict_allowance=0))
        report = verify_program(
            memcpy_case.frontend.traces, memcpy_case.specs, PC, budget=budget
        )
        assert report.outcome in (DEGRADED, UNKNOWN)
        for block in report.blocks.values():
            assert block.outcome != FAILED
            if block.outcome != VERIFIED:
                assert "budget" in block.reason or "conflict" in block.reason
        check_proof(report.proof, expected_blocks=set(memcpy_case.specs))

    def test_expired_deadline_reports_unknown(self, memcpy_case):
        budget = Budget(BudgetSpec(deadline_s=0.0))
        report = verify_program(
            memcpy_case.frontend.traces, memcpy_case.specs, PC, budget=budget
        )
        assert report.outcome == UNKNOWN
        assert all(
            "deadline" in b.reason for b in report.blocks.values()
        )
        assert budget.exhausted == "deadline"


class TestFaultyFrontend:
    """Faults during trace generation (executor.fork, bitblast) may add
    forks or abort paths, but a trace that does get built must still verify
    or degrade — never flip the verdict."""

    def test_frontend_under_faults_stays_sound(self):
        from repro.frontend import generate_instruction_map
        from repro.arch.riscv import RiscvModel
        from repro.isla import Assumptions, IslaError

        specs = memcpy_riscv.build_specs(2)[0]
        image = memcpy_riscv.build_image()
        for seed in range(10):
            injector = FaultInjector(seed, rate=0.05)
            try:
                with inject(injector):
                    frontend = generate_instruction_map(
                        RiscvModel(), image, Assumptions()
                    )
            except IslaError:
                continue  # a persistent injected fault aborted the build
            report = verify_program(frontend.traces, specs, PC)
            for block in report.blocks.values():
                if block.outcome == VERIFIED:
                    continue
                assert block.reason
            check_proof(report.proof, expected_blocks=set(specs))
