"""The chaos acceptance sweep: seeded fault campaigns against the fleet.

The acceptance contract (ISSUE 6): across 25+ fault seeds spanning all
four service-layer fault classes — shard kills, connection drops and
half-closes, heartbeat delays, journal-tail corruption — every job
terminates, every certificate is byte-identical to a serial fault-free
run, and no proof obligation runs to completion twice (the journal's
content-hash dedup is observable in the router's counters).

Faults are restricted to ``SERVICE_SITES``; the pipeline beneath each
shard runs clean, so byte-identity is pure determinism — any divergence
means the *fleet* corrupted a result in flight.
"""

from __future__ import annotations

import collections
import functools

import pytest

from ._chaos import run_campaign, serial_certificate

CASES = ("rbit", "uart", "hvc", "unaligned")
SWEEP_SEEDS = tuple(range(1, 26))

# Union of (site, kind) fault events observed across the whole module —
# the final coverage test asserts all four classes actually fired.
_COVERAGE: collections.Counter = collections.Counter()


@functools.lru_cache(maxsize=None)
def _serial(case: str) -> str:
    return serial_certificate(case)


def _assert_contract(report, cases=CASES) -> None:
    """The three invariants every campaign must satisfy."""
    for case in cases:
        assert report.outcomes.get(case) == "done", (
            report.seed, case, report.outcomes, report.fault_summary,
        )
        assert report.certificates[case] == _serial(case), (
            f"seed {report.seed}: certificate for {case} diverged under "
            f"chaos ({report.fault_summary})"
        )
    _COVERAGE.update(report.fault_events)


class TestSeedSweep:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_campaign_invariants(self, seed, tmp_path):
        report = run_campaign(
            seed, CASES, journal_path=str(tmp_path / "fleet.journal")
        )
        _assert_contract(report)
        # Fresh journal, distinct cases: each obligation ran exactly once.
        assert report.counters.get("fleet_jobs_completed") == len(CASES)
        assert report.jobs_executed == len(CASES)


class TestFocusedClasses:
    """One campaign per fault class with the injector pinned to that
    site at a high rate — guarantees each class is exercised regardless
    of how the sweep's wall-clock-driven decisions land."""

    def test_shard_kills_mid_run(self, tmp_path):
        report = run_campaign(
            seed=1,
            cases=CASES + ("memcpy_riscv",),
            rate=0.9,
            sites=("service.shard",),
            max_faults=2,
            journal_path=str(tmp_path / "fleet.journal"),
        )
        _assert_contract(report, CASES + ("memcpy_riscv",))
        assert report.shard_kills >= 1
        assert report.counters.get("shard_deaths", 0) >= 1
        assert report.counters.get("shard_restarts", 0) >= 1

    def test_connection_faults_are_retried_through(self, tmp_path):
        report = run_campaign(
            seed=4,
            cases=CASES,
            rate=0.35,
            sites=("service.conn",),
            journal_path=str(tmp_path / "fleet.journal"),
        )
        _assert_contract(report)
        assert any(site == "service.conn" for site, _ in report.fault_events)

    def test_heartbeat_delays_cause_spurious_restarts_not_loss(self, tmp_path):
        report = run_campaign(
            seed=2,
            cases=CASES,
            rate=0.9,
            sites=("service.heartbeat",),
            max_faults=6,
            journal_path=str(tmp_path / "fleet.journal"),
        )
        _assert_contract(report)
        assert report.counters.get("heartbeats_delayed", 0) >= 1


class TestJournalRounds:
    """Two-round campaigns: round one journals real completions, then the
    journal's tail is damaged the way a crash would, and round two must
    recover — truncate the tear, replay what was lost, dedup the rest."""

    @pytest.mark.parametrize("kind", ["truncate", "garbage"])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_corrupt_tail_round_trip(self, seed, kind, tmp_path):
        journal = str(tmp_path / "fleet.journal")
        cases = ("rbit", "uart")
        first = run_campaign(seed, cases, journal_path=journal)
        _assert_contract(first, cases)
        second = run_campaign(
            seed + 100, cases, journal_path=journal, corrupt_tail=kind
        )
        _assert_contract(second, cases)
        _COVERAGE[("service.journal", kind)] += 1
        counters = second.counters
        # Recovery is observable: surviving completions were served from
        # the journal, a torn completion was replayed — never both zero.
        recovered = counters.get("journal_dedup", 0) + counters.get(
            "journal_replayed", 0
        )
        assert recovered >= 1, counters
        # No double execution: at most the one possibly-torn tail record
        # can force a re-run; everything else dedups by content hash.
        assert second.jobs_executed <= 1, counters


def test_all_four_fault_classes_were_covered():
    if not _COVERAGE:
        pytest.skip("campaign tests did not run in this invocation")
    sites = {site for site, _kind in _COVERAGE}
    assert {
        "service.shard",
        "service.conn",
        "service.heartbeat",
        "service.journal",
    } <= sites, _COVERAGE


@pytest.mark.parametrize("cases", [CASES, ()], ids=["instant-jobs", "no-jobs"])
def test_instant_jobs_still_see_a_delayed_heartbeat(
    tmp_path, monkeypatch, cases
):
    """Every job finishes the moment a runner takes it (or there is none),
    yet the campaign lasts the monitor rounds a delayed heartbeat needs to
    fire."""
    from repro.service.runner import JobRunner

    def instant(self, job) -> None:
        job.mark_running()
        job.mark_done(
            {"outcome": "verified", "certificate": job.request.case,
             "budget": None}
        )

    monkeypatch.setattr(JobRunner, "run_job", instant)
    report = run_campaign(
        seed=2,
        cases=cases,
        rate=0.9,
        sites=("service.heartbeat",),
        max_faults=6,
        journal_path=str(tmp_path / "fleet.journal"),
    )
    assert report.outcomes == {case: "done" for case in cases}
    assert report.certificates == {case: case for case in cases}
    assert report.counters.get("heartbeats_delayed", 0) >= 1
