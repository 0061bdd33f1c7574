"""The fleet router: placement, failover, dedup, journal-backed restarts.

Everything here runs real verification through in-process LocalShard
fleets (via the chaos harness's :class:`ChaosFleet`, with no fault
injector installed — these are the *calm-weather* contracts; the storms
live in ``test_chaos.py``).  The load-bearing assertion throughout: a
certificate produced through the fleet is byte-identical to a serial,
cache-free run of the same case.
"""

from __future__ import annotations

import functools

import pytest

from repro.service import journal as journal_mod
from repro.service.fleet import FleetRouter, HashRing, job_content_hash
from repro.service.journal import JobJournal
from repro.service.protocol import SubmitRequest
from repro.service.queue import AdmissionError
from repro.service.supervisor import LocalShard, ShardSupervisor

from ._chaos import (
    ChaosFleet,
    corrupt_journal_tail,
    serial_certificate,
)

SHARDS = ["shard-0", "shard-1", "shard-2"]
KEYS = [f"key-{i}" for i in range(300)]


@functools.lru_cache(maxsize=None)
def _serial(case: str) -> str:
    return serial_certificate(case)


class TestHashRing:
    def test_mapping_is_deterministic_and_covers_every_shard(self):
        ring = HashRing(SHARDS)
        twin = HashRing(list(SHARDS))
        mapping = {key: ring.shard_for(key) for key in KEYS}
        assert mapping == {key: twin.shard_for(key) for key in KEYS}
        assert set(mapping.values()) == set(SHARDS)

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(SHARDS)
        counts = {shard: 0 for shard in SHARDS}
        for key in KEYS:
            counts[ring.shard_for(key)] += 1
        # 64 virtual nodes per shard: no shard should be starved or hog
        # the ring.  Loose bounds — this is a smoke check, not a chi².
        for shard, count in counts.items():
            assert 30 <= count <= 170, (shard, counts)

    def test_preference_is_a_permutation_starting_at_home(self):
        ring = HashRing(SHARDS)
        for key in KEYS[:50]:
            preference = ring.preference(key)
            assert preference[0] == ring.shard_for(key)
            assert sorted(preference) == sorted(SHARDS)

    def test_removing_a_shard_only_remaps_its_keys(self):
        """The consistency property that makes restarts cheap: keys owned
        by surviving shards do not move when a shard leaves the ring."""
        full = HashRing(SHARDS)
        reduced = HashRing(["shard-0", "shard-1"])
        moved = 0
        for key in KEYS:
            home = full.shard_for(key)
            if home == "shard-2":
                moved += 1
                continue
            assert reduced.shard_for(key) == home
        assert 0 < moved < len(KEYS)


class TestContentHash:
    def test_stable_and_kwargs_order_insensitive(self):
        first = job_content_hash("rbit", {"a": 1, "b": 2})
        second = job_content_hash("rbit", {"b": 2, "a": 1})
        assert first == second
        assert len(first) == 64 and int(first, 16) >= 0

    def test_case_and_kwargs_are_load_bearing(self):
        base = job_content_hash("rbit", {})
        assert job_content_hash("uart", {}) != base
        assert job_content_hash("rbit", {"n": 3}) != base
        assert job_content_hash("rbit", None) == base


class TestRouterEndToEnd:
    def test_certificates_byte_identical_to_serial(self):
        with ChaosFleet(shards=2) as fleet:
            jobs = [fleet.submit("rbit"), fleet.submit("uart")]
            fleet.wait_all(jobs, timeout_s=120)
            for job in jobs:
                assert job.state == "done", (job.request.case, job.error)
                assert job.result["certificate"] == _serial(job.request.case)
            snapshot = fleet.router.fleet_snapshot()
            assert snapshot["completed_hashes"] == 2

    def test_ppc_certificates_byte_identical_to_serial(self):
        """The third ISA rides the same fleet: daemon-produced certificates
        for the OpenPOWER case studies match a serial, cache-free run."""
        with ChaosFleet(shards=2) as fleet:
            jobs = [fleet.submit("memcpy_ppc"), fleet.submit("sign_ppc")]
            fleet.wait_all(jobs, timeout_s=240)
            for job in jobs:
                assert job.state == "done", (job.request.case, job.error)
                assert job.result["certificate"] == _serial(job.request.case)

    def test_jobs_survive_a_dead_shard(self):
        """Kill a shard, then submit: the breaker is forced open, the ring
        walks to the survivor, and every job still completes correctly."""
        fleet = ChaosFleet(shards=2)
        with fleet:
            fleet.supervisor.kill_shard("shard-0")
            jobs = [
                fleet.submit(case) for case in ("rbit", "uart", "unaligned")
            ]
            fleet.wait_all(jobs, timeout_s=120)
            for job in jobs:
                assert job.state == "done"
                assert job.result["certificate"] == _serial(job.request.case)

    def test_single_flight_shares_the_proof_obligation(self):
        with ChaosFleet(shards=1) as fleet:
            first = fleet.submit("rbit")
            second = fleet.submit("rbit")
            fleet.wait_all([first, second], timeout_s=120)
            assert fleet.telemetry.counter("fleet_dedup_hits") >= 1
            assert (
                first.result["certificate"] == second.result["certificate"]
            )
            # Exactly one execution reached the shards.
            assert fleet.telemetry.counter("fleet_jobs_submitted") == 1

    def test_unknown_case_is_rejected_at_admission(self):
        with ChaosFleet(shards=1) as fleet:
            with pytest.raises(AdmissionError):
                fleet.submit("no_such_case")

    def test_fleet_queue_cap_is_enforced(self):
        supervisor = ShardSupervisor(
            lambda _s, sid, _g, spec: LocalShard(sid, budget_spec=spec),
            shards=1,
        )
        router = FleetRouter(supervisor, max_queue=0)
        with pytest.raises(AdmissionError, match="queue full"):
            router.submit(SubmitRequest(case="rbit"))
        assert router.telemetry.counter("jobs_rejected") == 1


class TestJournalLifecycle:
    def test_dedup_across_router_lives(self, tmp_path):
        journal = tmp_path / "fleet.journal"
        with ChaosFleet(shards=1, journal_path=str(journal)) as fleet:
            job = fleet.submit("rbit")
            fleet.wait_all([job], timeout_s=120)
            certificate = job.result["certificate"]
        with ChaosFleet(shards=1, journal_path=str(journal)) as fleet:
            twin = fleet.submit("rbit")
            # Served synchronously from the journal: no shard ran anything.
            assert twin.state == "done"
            assert twin.result["certificate"] == certificate
            assert fleet.telemetry.counter("fleet_dedup_hits") == 1
            assert fleet.telemetry.counter("journal_dedup") == 1
            assert fleet.telemetry.counter("fleet_jobs_submitted") == 0

    def test_pending_accept_is_replayed_and_executed(self, tmp_path):
        """The crash-recovery contract: an accepted-but-unfinished job in
        the journal is resubmitted under its original id on startup."""
        path = tmp_path / "fleet.journal"
        with JobJournal(path) as journal:
            journal.append(
                journal_mod.ACCEPT,
                job="fleet-recovered",
                hash=job_content_hash("rbit", {}),
                case="rbit",
                kwargs={},
                priority="batch",
            )
        with ChaosFleet(shards=1, journal_path=str(path)) as fleet:
            job = fleet.router.job("fleet-recovered")
            assert job is not None and job.replayed
            fleet.wait_all([job], timeout_s=120)
            assert job.state == "done"
            assert job.result["certificate"] == _serial("rbit")
            assert fleet.telemetry.counter("journal_replayed") == 1

    def test_garbage_tail_is_truncated_and_history_survives(self, tmp_path):
        path = tmp_path / "fleet.journal"
        with ChaosFleet(shards=1, journal_path=str(path)) as fleet:
            job = fleet.submit("rbit")
            fleet.wait_all([job], timeout_s=120)
            certificate = job.result["certificate"]
        # A torn append on the way down: the final record's tail is junk.
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "accept", "job": "fleet-torn"')
        damaged = corrupt_journal_tail(path, "garbage", seed=3)
        assert damaged > 0
        with ChaosFleet(shards=1, journal_path=str(path)) as fleet:
            stats = fleet.router.journal.stats
            assert stats["truncated_bytes"] > 0
            # The valid prefix — rbit's accept + done — still dedups.
            twin = fleet.submit("rbit")
            assert twin.state == "done"
            assert twin.result["certificate"] == certificate
