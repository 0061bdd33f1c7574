"""The shard supervisor: heartbeats, SIGKILL restarts, budget reabsorption.

The acceptance-critical assertions live here: a killed shard is restarted
within the supervisor's stated backoff bound, and the fleet budget pool
is *exactly* restored — remaining = allowance − Σ(absorbed consumption),
with the dead shard's handed-out-but-unconsumed partition contributing
nothing, by the absorb arithmetic rather than by any cleanup code.
"""

from __future__ import annotations

import signal
import sys
import time

import pytest

from repro.resilience import BudgetSpec
from repro.resilience.faults import FaultInjector, inject
from repro.service.client import ServiceClient
from repro.service.supervisor import (
    DOWN,
    UP,
    LocalShard,
    ProcessShard,
    ShardSupervisor,
)
from repro.service.telemetry import Telemetry

FAST = dict(
    heartbeat_s=0.05,
    heartbeat_timeout_s=0.5,
    miss_limit=2,
    backoff_base_s=0.05,
    backoff_cap_s=0.5,
)


def _local_factory(_slot, shard_id, _generation, budget_spec):
    return LocalShard(shard_id, budget_spec=budget_spec)


def _wait(predicate, timeout_s: float, what: str) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


@pytest.fixture
def supervisor():
    sup = ShardSupervisor(
        _local_factory, shards=2, telemetry=Telemetry(), **FAST
    )
    sup.start()
    yield sup
    sup.stop()


class TestHeartbeatRestart:
    def test_all_shards_start_up(self, supervisor):
        assert supervisor.shard_ids == ["shard-0", "shard-1"]
        assert all(supervisor.is_up(s) for s in supervisor.shard_ids)

    def test_killed_shard_restarts_within_backoff_bound(self, supervisor):
        t0 = time.monotonic()
        supervisor.kill_shard("shard-0")
        _wait(
            lambda: supervisor.slot("shard-0").generation == 1
            and supervisor.is_up("shard-0"),
            timeout_s=30,
            what="shard-0 restart",
        )
        elapsed = time.monotonic() - t0
        # Death detection + first backoff rung, plus startup slack for the
        # replacement shard itself.
        assert elapsed <= supervisor.restart_bound_s(0) + 5.0
        assert supervisor.telemetry.counter("shard_deaths") == 1
        assert supervisor.telemetry.counter("shard_restarts") == 1

    def test_restarted_shard_serves_jobs(self, supervisor):
        supervisor.kill_shard("shard-1")
        _wait(
            lambda: supervisor.slot("shard-1").generation == 1
            and supervisor.is_up("shard-1"),
            timeout_s=30,
            what="shard-1 restart",
        )
        client = supervisor.handle("shard-1").make_client(timeout=300)
        report = client.run("rbit", timeout=300)
        assert report["outcome"] == "verified"

    def test_down_callback_fires_before_up_callback(self):
        events = []
        sup = ShardSupervisor(
            _local_factory,
            shards=1,
            telemetry=Telemetry(),
            on_down=lambda sid: events.append(("down", sid)),
            on_up=lambda sid: events.append(("up", sid)),
            **FAST,
        )
        sup.start()
        try:
            sup.kill_shard("shard-0")
            _wait(lambda: ("up", "shard-0") in events, 30, "up callback")
            assert events.index(("down", "shard-0")) < events.index(
                ("up", "shard-0")
            )
        finally:
            sup.stop()

    def test_delayed_heartbeats_count_as_misses(self):
        telemetry = Telemetry()
        sup = ShardSupervisor(
            _local_factory, shards=1, telemetry=telemetry, **FAST
        )
        # Every heartbeat decision fires "delay" until max_faults runs dry:
        # miss_limit delayed probes must declare the (perfectly healthy)
        # shard dead and restart it — the spurious-death path.
        injector = FaultInjector(
            seed=1, rate=1.0, sites=("service.heartbeat",), max_faults=4
        )
        with inject(injector):
            sup.start()
            try:
                _wait(
                    lambda: telemetry.counter("shard_restarts") >= 1,
                    30,
                    "spurious restart",
                )
            finally:
                sup.stop()
        assert telemetry.counter("heartbeats_delayed") >= FAST["miss_limit"]
        assert telemetry.counter("shard_deaths") >= 1

    def test_failed_restart_climbs_the_backoff_ladder(self):
        telemetry = Telemetry()
        attempts = []

        def flaky_factory(slot, shard_id, generation, budget_spec):
            if generation == 1:  # first replacement is dead on arrival
                attempts.append(generation)
                raise RuntimeError("replacement failed to boot")
            return _local_factory(slot, shard_id, generation, budget_spec)

        sup = ShardSupervisor(
            flaky_factory, shards=1, telemetry=telemetry, **FAST
        )
        sup.start()
        try:
            sup.kill_shard("shard-0")
            _wait(
                lambda: sup.is_up("shard-0")
                and sup.slot("shard-0").generation == 2,
                30,
                "second-attempt restart",
            )
        finally:
            sup.stop()
        assert attempts == [1]
        assert telemetry.counter("shard_restart_failures") == 1
        assert telemetry.counter("shard_restarts") == 1

    def test_restart_bound_is_monotone_in_attempts(self):
        sup = ShardSupervisor(_local_factory, shards=1, **FAST)
        bounds = [sup.restart_bound_s(a) for a in range(6)]
        assert bounds == sorted(bounds)
        # The ladder caps: far rungs stop growing.
        assert sup.restart_bound_s(20) == sup.restart_bound_s(30)


class TestBudgetPool:
    def test_partitions_hand_out_the_spec(self):
        spec = BudgetSpec(conflict_allowance=100)
        sup = ShardSupervisor(
            _local_factory, shards=2, service_spec=spec, **FAST
        )
        allowances = [slot.budget_spec.conflict_allowance for slot in sup.slots]
        assert sum(allowances) == 100
        assert sup.pool_remaining() == 100  # handing out drains nothing

    def test_pool_is_exactly_restored_after_shard_death(self):
        """The acceptance identity: after a kill mid-service, remaining ==
        allowance − Σ(absorbed), to the integer — the dead shard's
        unconsumed partition returns for free."""
        spec = BudgetSpec(conflict_allowance=10_000)
        sup = ShardSupervisor(
            _local_factory,
            shards=2,
            service_spec=spec,
            telemetry=Telemetry(),
            **FAST,
        )
        sup.start()
        try:
            # One real governed job on shard-0; absorb its actual usage.
            client = sup.handle("shard-0").make_client(timeout=300)
            report = client.run("rbit", timeout=300)
            used = report["budget"]["conflicts_used"]
            sup.absorb(report["budget"])
            assert sup.pool_remaining() == 10_000 - used
            # Kill shard-1 — its entire untouched partition (5000) was
            # handed out but never consumed.  The pool must not move.
            sup.kill_shard("shard-1")
            _wait(
                lambda: sup.is_up("shard-1")
                and sup.slot("shard-1").generation == 1,
                30,
                "shard-1 restart",
            )
            assert sup.pool_remaining() == 10_000 - used
            # And the restarted shard still serves from the same partition.
            report2 = sup.handle("shard-1").make_client(timeout=300).run(
                "rbit", timeout=300
            )
            sup.absorb(report2["budget"])
            assert (
                sup.pool_remaining()
                == 10_000 - used - report2["budget"]["conflicts_used"]
            )
        finally:
            sup.stop()

    def test_absorb_none_is_a_noop(self):
        sup = ShardSupervisor(
            _local_factory,
            shards=1,
            service_spec=BudgetSpec(conflict_allowance=7),
            **FAST,
        )
        sup.absorb(None)
        assert sup.pool_remaining() == 7

    def test_ungoverned_pool_reports_none(self):
        sup = ShardSupervisor(_local_factory, shards=1, **FAST)
        assert sup.pool_remaining() is None


class TestProcessShard:
    def test_kill_closes_the_log(self, tmp_path):
        """A killed shard's log file is closed with it, and a later
        ``stop()`` has nothing left to do."""
        shard = ProcessShard("shard-0", run_dir=str(tmp_path))
        shard.start()
        try:
            shard.kill()
            assert shard._proc.poll() is not None
            assert shard._log.closed
        finally:
            shard.stop()
        assert shard._log.closed

    def test_sigkill_restart_with_fresh_pid(self, tmp_path):
        """The real thing: a subprocess shard, SIGKILLed, restarted by the
        supervisor as a new process within the backoff bound."""

        def factory(_slot, shard_id, generation, budget_spec):
            return ProcessShard(
                shard_id,
                run_dir=str(tmp_path),
                budget_spec=budget_spec,
                generation=generation,
            )

        sup = ShardSupervisor(
            factory,
            shards=1,
            telemetry=Telemetry(),
            heartbeat_s=0.1,
            heartbeat_timeout_s=1.0,
            miss_limit=2,
            backoff_base_s=0.1,
            backoff_cap_s=1.0,
        )
        sup.start()
        try:
            pid = sup.handle("shard-0").pid
            assert pid is not None
            import os

            t0 = time.monotonic()
            os.kill(pid, signal.SIGKILL)
            _wait(
                lambda: sup.is_up("shard-0")
                and sup.slot("shard-0").generation == 1,
                60,
                "subprocess shard restart",
            )
            elapsed = time.monotonic() - t0
            new_pid = sup.handle("shard-0").pid
            assert new_pid is not None and new_pid != pid
            # Startup slack is generous: the replacement pays full Python
            # import cost; the *supervision* latency is what's bounded.
            assert elapsed <= sup.restart_bound_s(0) + 30.0
            health = sup.handle("shard-0").make_client(timeout=5).healthz()
            assert health["ok"] is True
            assert health["shard"] == "shard-0"
        finally:
            sup.stop()
