"""Job events are pushed, not polled.

A ``/jobs/<id>/events`` long-poll returns as soon as another thread
records an event on the job, with no sleep loop behind it; and the fleet
router follows a placed job through such long-polls, so a slow shard job
costs O(events) shard requests, not O(duration / poll interval).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.fleet import WATCH_WAIT_S, FleetRouter
from repro.service.http import HttpFrontEnd
from repro.service.protocol import JobRecord, SubmitRequest
from repro.service.supervisor import LocalShard, ShardSupervisor
from repro.service.telemetry import Telemetry

from ._chaos import serial_certificate
from ._http import get_json, launch


class OneJob(HttpFrontEnd):
    """A front end over one job that nothing runs: only the test adds
    its events."""

    def __init__(self) -> None:
        self.telemetry = Telemetry()
        self.record = JobRecord(request=SubmitRequest(case="rbit"))

    def start(self) -> None:
        pass

    async def after_close(self, mode: str) -> None:
        pass

    def job(self, job_id: str):
        return self.record if job_id == self.record.id else None


@pytest.fixture
def one_job(monkeypatch):
    server = OneJob()
    thread, (host, port) = launch(server)

    def no_sleep(*_args, **_kwargs):
        raise AssertionError("the events route slept")

    monkeypatch.setattr("repro.service.http.asyncio.sleep", no_sleep)
    yield server, host, port
    monkeypatch.undo()
    server.request_stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


def _events_after(server, host, port, action) -> tuple[float, dict]:
    """Long-poll past the job's current events while ``action`` runs on
    another thread 0.2 s in; ``(elapsed, body)``."""
    since = server.record.num_events
    timer = threading.Timer(0.2, action)
    start = time.monotonic()
    timer.start()
    try:
        status, body = get_json(
            host, port, f"/jobs/{server.record.id}/events?since={since}&wait=20"
        )
    finally:
        timer.join()
    assert status == 200, body
    return time.monotonic() - start, body


def test_add_event_on_another_thread_answers_the_long_poll(one_job):
    server, host, port = one_job
    elapsed, body = _events_after(
        server, host, port, lambda: server.record.add_event("build-done")
    )
    assert elapsed < 10
    assert [event["kind"] for event in body["events"]] == ["build-done"]
    assert body["state"] == "queued"
    assert server.record._waiters == []


def test_terminal_transition_answers_with_its_state_and_event(one_job):
    server, host, port = one_job
    elapsed, body = _events_after(
        server, host, port, lambda: server.record.mark_done({"outcome": "ok"})
    )
    assert elapsed < 10
    assert body["state"] == "done"
    assert [event["kind"] for event in body["events"]] == ["done"]


def test_an_expired_long_poll_leaves_no_waiter(one_job):
    server, host, port = one_job
    since = server.record.num_events
    status, body = get_json(
        host, port, f"/jobs/{server.record.id}/events?since={since}&wait=0.1"
    )
    assert status == 200
    assert body["events"] == []
    assert server.record._waiters == []


class CountingShard(LocalShard):
    """A :class:`LocalShard` whose clients record every job request."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.job_requests: list[tuple[str, str]] = []

    def make_client(self, **kwargs):
        client = super().make_client(**kwargs)
        send = client._request

        def counted(method, path, *args, **kw):
            if path.startswith("/jobs"):
                self.job_requests.append((method, path))
            return send(method, path, *args, **kw)

        client._request = counted
        return client


def test_router_watches_a_slow_job_with_o_events_requests(monkeypatch):
    from repro import casestudies

    expected = serial_certificate("rbit")
    slow_s = 2.0
    verify = casestudies.verify_case

    def slow_verify(*args, **kwargs):
        time.sleep(slow_s)
        return verify(*args, **kwargs)

    monkeypatch.setattr(casestudies, "verify_case", slow_verify)
    shards: list[CountingShard] = []

    def factory(_slot, shard_id, _generation, spec):
        shard = CountingShard(shard_id, budget_spec=spec)
        shards.append(shard)
        return shard

    supervisor = ShardSupervisor(factory, shards=1)
    router = FleetRouter(supervisor)
    router.start()
    try:
        job = router.submit(SubmitRequest(case="rbit"))
        deadline = time.monotonic() + 120
        while not job.terminal and time.monotonic() < deadline:
            time.sleep(0.05)
        assert job.state == "done", job.error
        (shard_job,) = shards[0].service.jobs.values()
        shard_events = shard_job.num_events
    finally:
        router.stop()
    assert job.result["certificate"] == expected
    requests = shards[0].job_requests
    polls = [path for method, path in requests if "/events" in path]
    # One submit, and the terminal reply carries the report; each long-poll
    # either brought new events or waited out its allowance while the job
    # was silent (the sleep, plus up to a second of build).
    assert len(requests) == len(polls) + 1
    assert len(polls) <= shard_events + (slow_s + 1) / WATCH_WAIT_S + 2
    # A 50 ms status poll would have needed at least 40.
    assert len(polls) < slow_s / 0.05


def test_shard_killed_during_a_long_poll_gets_its_job_requeued(monkeypatch):
    from repro import casestudies
    from ._chaos import ChaosFleet

    expected = serial_certificate("rbit")
    verify = casestudies.verify_case

    def slow_verify(*args, **kwargs):
        time.sleep(1.0)
        return verify(*args, **kwargs)

    monkeypatch.setattr(casestudies, "verify_case", slow_verify)
    with ChaosFleet(shards=2) as fleet:
        job = fleet.submit("rbit")
        deadline = time.monotonic() + 60
        while job.shard is None and time.monotonic() < deadline:
            time.sleep(0.01)
        victim = job.shard
        assert victim is not None
        time.sleep(0.3)  # the router is now inside a long-poll on the shard
        fleet.supervisor.kill_shard(victim)
        fleet.wait_all([job], timeout_s=120)
        assert job.state == "done", job.error
        assert job.attempts >= 2
        assert fleet.telemetry.counter("fleet_jobs_lost") >= 1
        assert job.result["certificate"] == expected


def test_client_wait_reads_the_terminal_state_from_the_long_poll(one_job):
    from repro.service.client import ServiceClient

    server, host, port = one_job
    client = ServiceClient(host=host, port=port, timeout=30.0)
    status_gets = []
    status = client.status
    client.status = lambda job_id: status_gets.append(job_id) or status(job_id)
    seen = []

    def progress() -> None:
        server.record.mark_running()
        server.record.add_event("build-done")
        server.record.mark_done({"outcome": "verified"})

    timer = threading.Timer(0.2, progress)
    timer.start()
    try:
        final = client.wait(server.record.id, timeout=60, on_event=seen.append)
    finally:
        timer.join()
    assert final["state"] == "done"
    assert [event["kind"] for event in seen] == [
        "queued", "started", "build-done", "done"
    ]
    # Only the final summary is fetched; no status poll between batches.
    assert status_gets == [server.record.id]


def test_no_wakeup_is_lost_under_thread_contention():
    """Four threads record events while a loop follows them with waiters
    alone, no timeouts to fall back on: every event arrives, in order."""
    import asyncio
    import sys

    record = JobRecord(request=SubmitRequest(case="rbit"))
    writers_done = threading.Event()

    def write(n: int) -> None:
        for i in range(50):
            record.add_event("block-done", writer=n, i=i)

    def writers() -> None:
        threads = [threading.Thread(target=write, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        writers_done.set()
        record.mark_done({"outcome": "verified"})

    async def follow() -> list:
        loop = asyncio.get_running_loop()
        seen, state = [], "queued"
        while state != "done":
            waiter = record.waiter(len(seen), loop)
            if waiter is not None:
                try:
                    await asyncio.wait_for(waiter, 30)
                finally:
                    record.drop_waiter(waiter)
            state, events = record.poll(len(seen))
            seen.extend(events)
        return seen

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threading.Timer(0.05, writers).start()
        seen = asyncio.run(follow())
    finally:
        sys.setswitchinterval(previous)
    assert writers_done.is_set()
    assert [event.seq for event in seen] == list(range(1 + 4 * 50 + 1))
    assert seen[-1].kind == "done"
    assert record._waiters == []


def test_a_terminal_long_poll_answers_once_at_the_end(one_job):
    server, host, port = one_job
    record = server.record

    def progress() -> None:
        record.mark_running()
        record.add_event("build-done")
        time.sleep(0.1)
        record.add_event("block-done", addr="0x0")
        record.mark_done({"outcome": "verified"})

    timer = threading.Timer(0.2, progress)
    start = time.monotonic()
    timer.start()
    try:
        status, body = get_json(
            host, port,
            f"/jobs/{record.id}/events?since=1&wait=20&until=terminal",
        )
    finally:
        timer.join()
    assert status == 200, body
    assert time.monotonic() - start < 10
    assert body["state"] == "done"
    assert [event["kind"] for event in body["events"]] == [
        "started", "build-done", "block-done", "done"
    ]
    assert record._waiters == []


def test_a_terminal_long_poll_waits_out_its_allowance(one_job):
    server, host, port = one_job
    record = server.record
    record.mark_running()
    status, body = get_json(
        host, port, f"/jobs/{record.id}/events?since=0&wait=0.2&until=terminal"
    )
    assert status == 200
    assert body["state"] == "running"
    assert [event["kind"] for event in body["events"]] == ["queued", "started"]
    assert record._waiters == []


def test_an_unknown_until_is_refused(one_job):
    server, host, port = one_job
    status, body = get_json(
        host, port, f"/jobs/{server.record.id}/events?wait=1&until=forever"
    )
    assert status == 400
    assert "until" in body["error"]


def test_only_a_terminal_transition_wakes_a_terminal_waiter():
    import asyncio

    async def scenario() -> tuple[bool, bool]:
        loop = asyncio.get_running_loop()
        record = JobRecord(request=SubmitRequest(case="rbit"))
        next_event = record.waiter(1, loop)
        terminal = record.waiter(1, loop, terminal=True)
        record.add_event("build-done")
        await asyncio.sleep(0)
        woken = (next_event.done(), terminal.done())
        record.mark_done({"outcome": "verified"})
        await asyncio.wait_for(terminal, 5)
        return woken + (record._waiters == [],)

    assert asyncio.run(scenario()) == (True, False, True)


def test_the_router_watches_a_job_with_one_long_poll(monkeypatch):
    """However many events the shard job records, the router's watch
    answers once, at its terminal state, and that reply carries the
    report: a job finishing within one ``WATCH_WAIT_S`` costs its shard a
    submit and one long-poll."""
    from repro.service import fleet

    expected = serial_certificate("binsearch_arm", {"n": 6})
    monkeypatch.setattr(fleet, "WATCH_WAIT_S", 30.0)
    shards: list[CountingShard] = []

    def factory(_slot, shard_id, _generation, spec):
        shard = CountingShard(shard_id, budget_spec=spec)
        shards.append(shard)
        return shard

    router = FleetRouter(ShardSupervisor(factory, shards=1))
    router.start()
    try:
        job = router.submit(SubmitRequest(case="binsearch_arm", kwargs={"n": 6}))
        deadline = time.monotonic() + 120
        while not job.terminal and time.monotonic() < deadline:
            time.sleep(0.05)
        assert job.state == "done", job.error
        (shard_job,) = shards[0].service.jobs.values()
        shard_events = shard_job.num_events
    finally:
        router.stop()
    assert job.result["certificate"] == expected
    assert shard_events > 3
    methods = [
        (method, path.split("?")[0].rsplit("/", 1)[-1])
        for method, path in shards[0].job_requests
    ]
    assert methods == [("POST", "jobs"), ("GET", "events")]


def _terminal_reply(server, host, port, until: str, finish) -> dict:
    """The body of a long-poll with ``until`` that ``finish`` ends."""
    since = server.record.num_events
    timer = threading.Timer(0.1, finish)
    timer.start()
    try:
        status, body = get_json(
            host, port,
            f"/jobs/{server.record.id}/events?since={since}&wait=20&until={until}",
        )
    finally:
        timer.join()
    assert status == 200, body
    return body


def test_a_terminal_done_reply_carries_the_report(one_job):
    server, host, port = one_job
    result = {"outcome": "verified", "certificate": "(cert)"}
    body = _terminal_reply(
        server, host, port, "terminal", lambda: server.record.mark_done(result)
    )
    assert body["state"] == "done"
    assert body["report"] == result
    _status, report = get_json(host, port, f"/jobs/{server.record.id}/report")
    assert body["report"] == report


def test_an_event_reply_carries_no_report(one_job):
    server, host, port = one_job
    body = _terminal_reply(
        server, host, port, "event",
        lambda: server.record.mark_done({"outcome": "verified"}),
    )
    assert body["state"] == "done"
    assert "report" not in body


@pytest.mark.parametrize("end", ["failed", "cancelled"])
def test_a_terminal_reply_that_is_not_done_carries_no_report(one_job, end):
    server, host, port = one_job
    finish = {
        "failed": lambda: server.record.mark_failed("boom"),
        "cancelled": lambda: server.record.mark_cancelled("asked"),
    }[end]
    body = _terminal_reply(server, host, port, "terminal", finish)
    assert body["state"] == end
    assert "report" not in body
