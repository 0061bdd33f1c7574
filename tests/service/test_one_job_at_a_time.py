"""A daemon runs one job at a time; a fleet scales by shards.

Every pipeline stage is CPU-bound Python, so a second job thread in one
daemon would only share the interpreter lock.  These tests pin the single
job thread, the CLI surface that no longer sets a runner count, and the
kept traces that serve a repeated job without running Isla.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.service import batcher as batcher_module
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import JobRecord, SubmitRequest
from repro.service.runner import JobRunner
from repro.service.server import VerificationService

from ._http import launch


def test_two_jobs_never_run_at_once(monkeypatch):
    from repro import casestudies

    verify = casestudies.verify_case
    lock = threading.Lock()
    active = [0]
    most = [0]

    def watched(*args, **kwargs):
        with lock:
            active[0] += 1
            most[0] = max(most[0], active[0])
        try:
            time.sleep(0.3)  # long enough for a second thread to start one
            return verify(*args, **kwargs)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(casestudies, "verify_case", watched)
    service = VerificationService()
    thread, (host, port) = launch(service)
    client = ServiceClient(host=host, port=port, timeout=300)
    try:
        jobs = [client.submit("rbit") for _ in range(2)]
        states = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            now = [client.status(job["id"])["state"] for job in jobs]
            states.append(now)
            if all(state == "done" for state in now):
                break
            time.sleep(0.02)
        finals = [client.status(job["id"]) for job in jobs]
    finally:
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass
        thread.join(timeout=60)
    assert states[-1] == ["done", "done"]
    assert most[0] == 1
    # The job intervals, not sampled states: two status reads are two
    # requests, and the first job can finish and the second start between
    # them, which once read as ["running", "running"].
    first, second = sorted(finals, key=lambda snap: snap["started"])
    assert first["finished"] <= second["started"]


def test_a_repeated_job_is_served_from_kept_traces(monkeypatch):
    """On a daemon with no disk cache, the second identical job gets every
    trace from the kept map: dedup hits, and no Isla run in its scope."""
    run = batcher_module.trace_for_opcode

    def counted(*args, **kwargs):
        obs.count("test.isla_runs")
        return run(*args, **kwargs)

    monkeypatch.setattr(batcher_module, "trace_for_opcode", counted)
    service = VerificationService()
    assert service.cache is None
    first = JobRecord(SubmitRequest("rbit"))
    second = JobRecord(SubmitRequest("rbit"))
    runner = JobRunner(service)
    with obs.scope() as first_run:
        runner.run_job(first)
    counter = service.telemetry.counter
    requests, hits = counter("trace_requests"), counter("dedup_hits")
    with obs.scope() as second_run:
        runner.run_job(second)
    assert first.state == second.state == "done"
    assert first_run.snapshot("test.")["isla_runs"] > 0
    assert second_run.snapshot("test.") == {}
    # Every trace request of the repeat was a hit.
    assert counter("dedup_hits") - hits > 0
    assert counter("dedup_hits") - hits == counter("trace_requests") - requests
    assert second.result["certificate"] == first.result["certificate"]


def test_serve_has_no_runner_count(capsys):
    from repro.tools import serve

    with pytest.raises(SystemExit) as excinfo:
        serve.main(["--runners", "2"])
    assert excinfo.value.code == 2
    assert "--runners" in capsys.readouterr().err


def test_fleet_accepts_only_one_runner_per_shard(capsys):
    from repro.tools import fleet

    with pytest.raises(SystemExit) as excinfo:
        fleet.main(["--runners", "2"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
