"""A model error while a case is built fails closed, on the CLI and in the
daemon alike: a typed ``failed`` result with its reason, never a
traceback."""

from __future__ import annotations

import time

import pytest

from repro import casestudies
from repro.isla import IslaError, executor
from repro.service.protocol import SubmitRequest
from repro.service.server import VerificationService

REASON = "model error on feasible path: injected at build time"


@pytest.fixture
def broken_executor(monkeypatch):
    """Every symbolic execution raises, as a model error on a feasible
    path would; nothing is served from a cache in these runs."""

    def enumerate_raw(*args, **kwargs):
        raise IslaError(REASON)

    monkeypatch.setattr(executor, "_enumerate_raw", enumerate_raw)


def test_cli_prints_one_failed_line_per_case_and_goes_on(broken_executor, capsys):
    from repro.tools.verify import main

    assert main(["--all", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    lines = err.splitlines()
    assert lines == [
        f"{name}: FAILED: build: IslaError: {REASON}" for name in casestudies.__all__
    ]


def test_daemon_job_fails_with_the_isla_error(broken_executor):
    service = VerificationService()
    service.start()
    try:
        job = service.submit(SubmitRequest(case="rbit"))
        deadline = time.monotonic() + 60
        while not job.terminal and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        service.stop()
    assert job.state == "failed"
    assert job.error == f"IslaError: {REASON}"
