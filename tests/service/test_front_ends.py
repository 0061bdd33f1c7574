"""Contracts both HTTP front ends keep: the daemon and the fleet router.

Both speak HTTP through :mod:`repro.service.http`, so every malformed
request gets the same status from either, counts in ``http_rejects``
(never ``http_errors``), and leaves the server answering ``/healthz``.
"""

from __future__ import annotations

import pytest

from repro.service import http
from repro.service.fleet import FleetRouter
from repro.service.protocol import SubmitRequest
from repro.service.server import VerificationService
from repro.service.supervisor import LocalShard, ShardSupervisor

from ._http import get_json, launch, post_json, raw_status

KINDS = ["daemon", "fleet"]


def _front_end(kind: str):
    if kind == "daemon":
        return VerificationService()
    supervisor = ShardSupervisor(
        lambda _s, sid, _g, spec: LocalShard(sid, budget_spec=spec),
        shards=1,
    )
    return FleetRouter(supervisor)


@pytest.mark.parametrize("kind", KINDS)
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


@pytest.mark.parametrize("kind", KINDS)
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


@pytest.fixture(scope="module")
def serving():
    """One running front end per kind, shared by the probe tests."""
    started = {}

    def get(kind: str):
        if kind not in started:
            server = _front_end(kind)
            thread, addr = launch(server)
            started[kind] = (server, thread, addr)
        server, _thread, addr = started[kind]
        return server, addr

    yield get
    for server, thread, _addr in started.values():
        server.request_stop()
        thread.join(timeout=60)
        assert not thread.is_alive()


def _post(path: str, body: bytes, length: str | None = None) -> bytes:
    length = str(len(body)) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
        + body
    )


_PAD = b"a" * 70_000
_PROBES = {
    "header-line-70000": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + _PAD + b"\r\n\r\n", 431),
    "header-line-9000": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + _PAD[:9000] + b"\r\n\r\n", 431),
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101 + b"\r\n", 431),
    "request-line-70000": (b"GET /" + _PAD + b" HTTP/1.1\r\n\r\n", 414),
    "request-line-9000": (b"GET /" + _PAD[:9000] + b" HTTP/1.1\r\n\r\n", 414),
    "request-line-garbage": (b"GARBAGE\r\n\r\n", 400),
    "content-length-99999999": (_post("/jobs", b"{}", "99999999"), 413),
    "content-length-abc": (_post("/jobs", b"{}", "abc"), 400),
    "content-length--5": (_post("/jobs", b"{}", "-5"), 400),
    "shutdown-body-list": (_post("/shutdown", b"[]"), 400),
}


def _assert_still_serving(server, host, port, rejects_before, rejected=1):
    status, body = get_json(host, port, "/healthz")
    assert status == 200 and "uptime_s" in body
    assert server.telemetry.counter("http_errors") == 0
    assert server.telemetry.counter("http_rejects") == rejects_before + rejected


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("probe", list(_PROBES))
def test_malformed_request_gets_its_status(serving, kind, probe, caplog):
    """Each probe is answered with its status (never a hang, a traceback
    or a bare close) and the server keeps serving."""
    server, (host, port) = serving(kind)
    data, expected = _PROBES[probe]
    before = server.telemetry.counter("http_rejects")
    assert raw_status(host, port, data) == expected
    _assert_still_serving(server, host, port, before)
    assert "client_connected_cb" not in caplog.text


@pytest.mark.parametrize("kind", KINDS)
def test_stalled_request_is_408(serving, kind, monkeypatch):
    """A head or body that never finishes arriving is answered 408 once
    the read deadline passes, and nothing is buffered for it."""
    server, (host, port) = serving(kind)
    monkeypatch.setattr(http, "READ_TIMEOUT_S", 0.3)
    before = server.telemetry.counter("http_rejects")
    assert raw_status(host, port, _post("/jobs", b"{}", "100")) == 408
    assert raw_status(host, port, b"GET /healthz HTTP/1.1\r\n") == 408
    _assert_still_serving(server, host, port, before, rejected=2)


@pytest.mark.parametrize("kind", KINDS)
def test_shutdown_body_fails_closed(serving, kind):
    """``POST /shutdown`` takes an empty body or an object whose ``mode``
    is ``drain`` or ``abort``; anything else — ``crash`` included, which
    only :meth:`request_stop` reaches — is 400 and the server keeps
    serving."""
    server, (host, port) = serving(kind)
    for body in (b"[]", b'"x"', b'{"mode": "crash"}', b'{"mode": "bogus"}',
                 b"\xff\xfe{}"):
        before = server.telemetry.counter("http_rejects")
        assert raw_status(host, port, _post("/shutdown", body)) == 400, body
        _assert_still_serving(server, host, port, before)
