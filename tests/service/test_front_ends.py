"""Contracts both HTTP front ends keep: the daemon and the fleet router."""

from __future__ import annotations

import pytest

from repro.service.fleet import FleetRouter
from repro.service.protocol import SubmitRequest
from repro.service.server import VerificationService
from repro.service.supervisor import LocalShard, ShardSupervisor

from ._http import get_json, launch, post_json


def _front_end(kind: str):
    if kind == "daemon":
        return VerificationService(pool_jobs=1, runners=1)
    supervisor = ShardSupervisor(
        lambda _s, sid, _g, spec: LocalShard(sid, budget_spec=spec),
        shards=1,
    )
    return FleetRouter(supervisor)


@pytest.mark.parametrize("kind", ["daemon", "fleet"])
def test_malformed_events_query_is_400(kind):
    """A non-numeric ``since`` or ``wait`` is the client's error: 400 with
    a message, not a 500 counted as a server-side ``http_errors``."""
    server = _front_end(kind)
    thread, (host, port) = launch(server)
    try:
        job = server.submit(SubmitRequest(case="rbit"))
        events = f"/jobs/{job.id}/events"
        for query in ("since=abc", "wait=abc"):
            status, body = get_json(host, port, f"{events}?{query}")
            assert status == 400, (query, body)
            assert query.split("=")[0] in body["error"]
        status, body = get_json(host, port, f"{events}?since=0&wait=0")
        assert status == 200 and "events" in body
        assert server.telemetry.counter("http_errors") == 0
    finally:
        server.request_stop()
        thread.join(timeout=60)
    assert not thread.is_alive()


@pytest.mark.parametrize("kind", ["daemon", "fleet"])
def test_ill_typed_budget_fields_are_400(kind):
    """A ``deadline_s`` or ``conflicts`` of the wrong type, or a deadline
    that is not finite, is the client's error: 400, nothing admitted."""
    server = _front_end(kind)
    thread, (host, port) = launch(server)
    try:
        for fields in (
            {"deadline_s": [1]},
            {"deadline_s": "nan"},
            {"conflicts": {}},
            {"conflicts": "many"},
        ):
            status, body = post_json(host, port, "/jobs", {"case": "rbit", **fields})
            assert status == 400, (fields, body)
            assert next(iter(fields)) in body["error"]
        assert server.telemetry.counter("http_errors") == 0
        assert not server.jobs
    finally:
        server.request_stop()
        thread.join(timeout=60)
    assert not thread.is_alive()
