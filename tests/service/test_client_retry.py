"""Client failure handling: timeouts, typed errors, retry policy.

These tests run against throwaway socket servers, not the real daemon —
what is under test is purely the client's behaviour at the edge: a hung
daemon must surface as a typed :class:`ServiceTimeout` (bounded by the
read timeout, not forever), retries must be jittered-exponential and must
never replay a POST whose bytes may have reached the server.  Failover
across shards is the fleet router's (``tests/service/test_fleet.py``).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)


class _Server:
    """A scriptable single-shot TCP server: each accepted connection is
    handled by the next behaviour in the script ("ok", "hang", "reset")."""

    def __init__(self, script) -> None:
        self.script = list(script)
        self.hits = 0
        self.requests: list[bytes] = []
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.1)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            behaviour = (
                self.script[self.hits] if self.hits < len(self.script) else "ok"
            )
            self.hits += 1
            try:
                conn.settimeout(2)
                try:
                    self.requests.append(conn.recv(65536))
                except OSError:
                    pass
                if behaviour == "hang":
                    self._stop.wait(5)
                elif behaviour == "reset":
                    conn.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00",
                    )
                else:
                    body = json.dumps({"ok": True, "id": "job-1"}).encode()
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body
                    )
            finally:
                conn.close()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


def _client(server, **kwargs):
    defaults = dict(timeout=0.3, connect_timeout=0.3, retry_seed=7)
    defaults.update(kwargs)
    return ServiceClient(host="127.0.0.1", port=server.port, **defaults)


class TestTimeouts:
    def test_hung_read_times_out_with_typed_error(self):
        server = _Server(["hang"])
        try:
            client = _client(server)
            start = time.monotonic()
            with pytest.raises(ServiceTimeout) as info:
                client.healthz()
            assert time.monotonic() - start < 5  # bounded, not forever
            assert info.value.phase == "read"
            assert info.value.status == 504
        finally:
            server.close()

    def test_refused_connection_is_unavailable(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        client = ServiceClient(host="127.0.0.1", port=port, connect_timeout=0.3)
        with pytest.raises(ServiceUnavailable) as info:
            client.healthz()
        assert info.value.phase == "connect"
        assert info.value.status == 503

    def test_both_are_service_errors(self):
        """Existing ``except ServiceError`` call sites keep catching."""
        assert issubclass(ServiceTimeout, ServiceError)
        assert issubclass(ServiceUnavailable, ServiceError)


class TestRetries:
    def test_idempotent_get_retries_through_resets(self):
        server = _Server(["reset", "reset", "ok"])
        try:
            client = _client(server, retries=3, backoff_s=0.01)
            assert client.healthz()["ok"] is True
            assert server.hits == 3
        finally:
            server.close()

    def test_post_read_failure_is_not_retried(self):
        """A POST that died after its bytes may have reached the daemon
        must surface, not replay — a retry could double-submit the job."""
        server = _Server(["reset", "ok"])
        try:
            client = _client(server, retries=5, backoff_s=0.01)
            with pytest.raises(ServiceUnavailable):
                client.submit("rbit")
            assert server.hits == 1  # no second attempt
        finally:
            server.close()

    def test_post_connect_failure_is_retried(self):
        """Refused at connect: no bytes sent, retry is always safe."""
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = ServiceClient(
            host="127.0.0.1", port=port,
            connect_timeout=0.2, retries=2, backoff_s=0.01, retry_seed=7,
        )
        start = time.monotonic()
        with pytest.raises(ServiceUnavailable):
            client.submit("rbit")
        # Three attempts' worth of backoff happened (can't count refusals
        # without a listener, but the elapsed floor shows the retries ran).
        assert time.monotonic() - start >= 0.01

    def test_retries_exhaust_then_raise(self):
        server = _Server(["reset", "reset", "reset", "reset"])
        try:
            client = _client(server, retries=2, backoff_s=0.01)
            with pytest.raises(ServiceUnavailable):
                client.healthz()
            assert server.hits == 3  # initial + 2 retries
        finally:
            server.close()

    def test_backoff_is_seeded_and_bounded(self):
        client = ServiceClient(
            retries=8, backoff_s=0.05, backoff_cap_s=0.4, jitter=0.5,
            retry_seed=123,
        )
        delays = [client._backoff(attempt) for attempt in range(8)]
        for attempt, delay in enumerate(delays):
            ceiling = min(0.4, 0.05 * (2 ** attempt))
            assert 0.5 * ceiling <= delay <= ceiling
        twin = ServiceClient(
            retries=8, backoff_s=0.05, backoff_cap_s=0.4, jitter=0.5,
            retry_seed=123,
        )
        assert delays == [twin._backoff(a) for a in range(8)]


class TestDeadline:
    def test_deadline_bounds_the_whole_retry_loop(self):
        server = _Server(["hang", "hang", "hang", "hang"])
        try:
            client = _client(
                server, timeout=0.2, retries=10, backoff_s=0.05,
                deadline_s=0.5,
            )
            start = time.monotonic()
            with pytest.raises(ServiceTimeout):
                client.healthz()
            assert time.monotonic() - start < 2.0
            assert server.hits < 10  # the deadline cut retries short
        finally:
            server.close()

    def test_deadline_clips_read_timeout(self):
        server = _Server(["hang"])
        try:
            client = _client(server, timeout=30.0)
            start = time.monotonic()
            with pytest.raises(ServiceTimeout):
                client._request("GET", "/healthz", deadline_s=0.3)
            assert time.monotonic() - start < 2.0
        finally:
            server.close()

