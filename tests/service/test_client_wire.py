"""The client's wire format: one plain socket per request.

:class:`ServiceClient` writes each request at once and reads the reply
to EOF.  These tests pin what it does with every reply it may get: a real
front end's (large and text bodies), a scripted server's malformed or
short ones (a typed :class:`ServiceError`, never a ``ValueError``), and
no server at all.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.http import HttpFrontEnd
from repro.service.protocol import JobRecord, SubmitRequest
from repro.service.telemetry import Telemetry

from ._http import launch


class _OneReply:
    """A TCP server that answers one connection with ``reply`` verbatim
    and closes; ``request`` holds what the client sent."""

    def __init__(self, reply: bytes) -> None:
        self.request = b""
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(
            target=self._serve, args=(reply,), daemon=True
        )
        self._thread.start()

    def _serve(self, reply: bytes) -> None:
        conn, _addr = self._sock.accept()
        with conn:
            conn.settimeout(5)
            while b"\r\n\r\n" not in self.request:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                self.request += chunk
            conn.sendall(reply)

    def __enter__(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=5.0, connect_timeout=1.0)

    def __exit__(self, *exc) -> None:
        self._thread.join(timeout=5)
        self._sock.close()


def _json_reply(body: bytes, length: str | None = None) -> bytes:
    length = str(len(body)) if length is None else length
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {length}\r\nConnection: close\r\n\r\n".encode()
        + body
    )


def test_a_request_carries_its_json_body_and_asks_to_close():
    server = _OneReply(_json_reply(b'{"id": "job-1"}'))
    with server as client:
        assert client.submit("rbit", kwargs={"n": 4}) == {"id": "job-1"}
    head, _, _ = server.request.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    assert lines[0] == "POST /jobs HTTP/1.1"
    assert "Connection: close" in lines
    assert "Content-Type: application/json" in lines


@pytest.mark.parametrize(
    "reply",
    [
        b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
        b"HTTP/1.1 OK fine\r\n\r\n{}",
        b"\x00\xff\xfe garbage",
    ],
    ids=["not-http", "no-status-code", "binary"],
)
def test_a_garbage_status_line_is_a_502(reply):
    with _OneReply(reply) as client:
        with pytest.raises(ServiceError) as info:
            client.healthz()
    assert type(info.value) is ServiceError
    assert info.value.status == 502


@pytest.mark.parametrize("length", ["many", "-3", "1e3", "\xb2"])
def test_a_bad_content_length_is_a_502(length):
    reply = _json_reply(b"{}", length=length)
    with _OneReply(reply) as client:
        with pytest.raises(ServiceError) as info:
            client.healthz()
    assert type(info.value) is ServiceError
    assert info.value.status == 502


def test_a_malformed_json_body_is_a_502():
    with _OneReply(_json_reply(b'{"ok": tru')) as client:
        with pytest.raises(ServiceError) as info:
            client.healthz()
    assert info.value.status == 502


@pytest.mark.parametrize(
    "reply",
    [
        _json_reply(b'{"ok": true}', length="400"),
        b"HTTP/1.1 200 OK\r\nContent-Type: appl",
        b"",
    ],
    ids=["short-body", "short-head", "empty"],
)
def test_a_reply_cut_short_is_a_lost_connection(reply):
    with _OneReply(reply) as client:
        with pytest.raises(ServiceUnavailable) as info:
            client.healthz()
    assert info.value.phase == "read"


def test_a_missing_socket_is_unavailable_at_connect(tmp_path):
    client = ServiceClient(socket_path=str(tmp_path / "nobody.sock"))
    with pytest.raises(ServiceUnavailable) as info:
        client.healthz()
    assert info.value.phase == "connect"


def test_a_refused_connection_is_unavailable_at_connect():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    with pytest.raises(ServiceUnavailable) as info:
        ServiceClient(port=port, connect_timeout=0.5).healthz()
    assert info.value.phase == "connect"


def test_a_silent_server_is_a_read_timeout():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)  # accepts into the backlog, never answers
        client = ServiceClient(
            port=sock.getsockname()[1], timeout=0.2, connect_timeout=1.0
        )
        with pytest.raises(ServiceTimeout) as info:
            client.healthz()
    assert info.value.phase == "read"


class _DoneJob(HttpFrontEnd):
    """A front end over one finished job with a large report."""

    def __init__(self, result: dict) -> None:
        self.telemetry = Telemetry()
        self.record = JobRecord(request=SubmitRequest(case="rbit"))
        self.record.mark_done(result)

    def start(self) -> None:
        pass

    async def after_close(self, mode: str) -> None:
        pass

    def job(self, job_id: str):
        return self.record if job_id == self.record.id else None

    def health(self) -> dict:
        return {"ok": True}


@pytest.fixture(scope="module")
def done_job():
    # About 130 KB of certificate text, with non-ASCII to cross the
    # UTF-8 decode: larger than pkvm's whole certificate.
    certificate = "".join(
        f"(step {i} ∃x. x ≠ {i * 0x9E3779B97F4A7C15 % 2**64:016x})\n"
        for i in range(3000)
    )
    server = _DoneJob({"outcome": "verified", "certificate": certificate})
    thread, (host, port) = launch(server)
    yield server, ServiceClient(host=host, port=port, timeout=30.0)
    server.request_stop()
    thread.join(timeout=30)


def test_a_130_kb_report_round_trips(done_job):
    server, client = done_job
    report = client.report(server.record.id)
    assert len(json.dumps(report).encode()) > 130_000
    assert report == server.record.result


def test_metrics_text_is_text(done_job):
    _server, client = done_job
    text = client.metrics_text()
    assert isinstance(text, str)
    assert "# TYPE" in text
