"""The fleet router: placement, failover, dedup, journal-backed restarts.

Everything here runs real verification through in-process LocalShard
fleets (via the chaos harness's :class:`ChaosFleet`, with no fault
injector installed — these are the *calm-weather* contracts; the storms
live in ``test_chaos.py``).  The load-bearing assertion throughout: a
certificate produced through the fleet is byte-identical to a serial,
cache-free run of the same case.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time

import pytest

from repro.service import journal as journal_mod
from repro.service.breaker import CircuitBreaker
from repro.service.client import ServiceError
from repro.service.fleet import FleetRouter, job_content_hash
from repro.service.journal import JobJournal
from repro.service.protocol import SubmitRequest
from repro.service.queue import AdmissionError
from repro.service.supervisor import DOWN, LocalShard, ShardSupervisor

from ._chaos import (
    ChaosFleet,
    corrupt_journal_tail,
    serial_certificate,
)

@functools.lru_cache(maxsize=None)
def _serial(case: str) -> str:
    return serial_certificate(case)


def _bare_router(shards: int = 3) -> FleetRouter:
    """A router over unstarted LocalShards, to drive placement directly."""
    supervisor = ShardSupervisor(
        lambda _s, sid, _g, spec: LocalShard(sid, budget_spec=spec),
        shards=shards,
    )
    return FleetRouter(supervisor)


def _inflight(router: FleetRouter) -> dict:
    return {
        shard["shard"]: shard["inflight"]
        for shard in router.fleet_snapshot()["shards"]
    }


@contextlib.contextmanager
def _held_watches(router: FleetRouter):
    """Hold every placed job before its watch starts, so jobs stay in
    flight (their shard slots taken) until the yielded gate is set."""
    gate = threading.Event()
    watch = router._watch

    def held(*args, **kwargs):
        gate.wait(timeout=60)
        return watch(*args, **kwargs)

    router._watch = held
    try:
        yield gate
    finally:
        gate.set()


def _wait_for(predicate, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _placed(jobs) -> bool:
    return all(job.shard is not None for job in jobs)


class TestPlacement:
    def test_reserve_takes_the_least_loaded_shard_in_shard_order(self):
        router = _bare_router(3)
        picks = [router._reserve(set()) for _ in range(6)]
        assert picks == ["shard-0", "shard-1", "shard-2"] * 2
        router._release("shard-1")
        assert router._reserve(set()) == "shard-1"
        assert router._reserve({"shard-0", "shard-1"}) == "shard-2"

    def test_down_or_open_circuited_shards_are_never_chosen(self):
        router = _bare_router(3)
        router.supervisor.slot("shard-0").state = DOWN
        router.breakers["shard-1"] = CircuitBreaker(cooldown_s=3600.0)
        router.breakers["shard-1"].force_open()
        picks = {router._reserve(set()) for _ in range(5)}
        assert picks == {"shard-2"}
        assert _inflight(router) == {"shard-0": 0, "shard-1": 0, "shard-2": 5}
        assert router._reserve({"shard-2"}) is None

    def test_jobs_held_in_flight_land_on_different_shards(self):
        cases = ("rbit", "uart", "unaligned")
        with ChaosFleet(shards=3) as fleet:
            with _held_watches(fleet.router) as gate:
                jobs = [fleet.submit(case) for case in cases]
                _wait_for(lambda: _placed(jobs))
                assert sorted(job.shard for job in jobs) == [
                    "shard-0", "shard-1", "shard-2"
                ]
                assert set(_inflight(fleet.router).values()) == {1}
                gate.set()
                fleet.wait_all(jobs, timeout_s=120)
            for job in jobs:
                assert job.state == "done", (job.request.case, job.error)
                assert job.result["certificate"] == _serial(job.request.case)
            snapshot = fleet.router.fleet_snapshot()["shards"]
            assert [shard["placed"] for shard in snapshot] == [1, 1, 1]
            assert [shard["inflight"] for shard in snapshot] == [0, 0, 0]

    def test_a_429_fails_over_to_the_next_shard_and_frees_the_slot(self):
        with ChaosFleet(shards=2) as fleet:
            handle = fleet.supervisor.handle("shard-0")
            make_client = handle.make_client

            def refusing_client(**kwargs):
                client = make_client(**kwargs)

                def submit(*_args, **_kwargs):
                    raise ServiceError(429, "shard queue full")

                client.submit = submit
                return client

            handle.make_client = refusing_client
            with _held_watches(fleet.router) as gate:
                job = fleet.submit("rbit")
                _wait_for(lambda: _placed([job]))
                assert job.shard == "shard-1"
                assert _inflight(fleet.router) == {"shard-0": 0, "shard-1": 1}
                gate.set()
                fleet.wait_all([job], timeout_s=120)
            assert job.state == "done", job.error
            assert fleet.telemetry.counter("fleet_submit_overflow") == 1
            assert fleet.telemetry.counter("fleet_failovers") == 1
            assert _inflight(fleet.router) == {"shard-0": 0, "shard-1": 0}


class TestSlotsAreReleased:
    """Every way a placed job leaves its shard gives the slot back."""

    def test_after_done_and_remote_failure(self):
        with ChaosFleet(shards=2) as fleet:
            done = fleet.submit("rbit")
            failed = fleet.submit("uart", {"no_such_argument": 1})
            fleet.wait_all([done, failed], timeout_s=120)
            assert done.state == "done", done.error
            assert failed.state == "failed"
            assert "no_such_argument" in failed.error
            assert set(_inflight(fleet.router).values()) == {0}

    def test_after_a_lost_shard(self):
        with ChaosFleet(shards=2) as fleet:
            with _held_watches(fleet.router) as gate:
                job = fleet.submit("rbit")
                _wait_for(lambda: _placed([job]))
                fleet.supervisor.kill_shard(job.shard)
                gate.set()
                fleet.wait_all([job], timeout_s=120)
            assert job.state == "done", job.error
            assert job.result["certificate"] == _serial("rbit")
            assert fleet.telemetry.counter("fleet_jobs_lost") >= 1
            assert set(_inflight(fleet.router).values()) == {0}

    def test_after_a_router_stop(self):
        with ChaosFleet(shards=2) as fleet:
            with _held_watches(fleet.router) as gate:
                job = fleet.submit("rbit")
                _wait_for(lambda: _placed([job]))
                stopper = threading.Thread(target=fleet.router.stop)
                stopper.start()
                _wait_for(fleet.router._stop.is_set)
                gate.set()
                stopper.join(timeout=60)
            assert not job.terminal
            assert set(_inflight(fleet.router).values()) == {0}


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
        """Kill a shard, then submit: a submit the dead shard refuses fails
        over to the survivor, the breaker keeps the dead shard out of
        placement until its restart, and every job still completes
        correctly."""
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
