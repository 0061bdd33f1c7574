"""Thin client for the verification daemon and fleet.

Speaks the daemon's JSON-over-HTTP protocol over local TCP or a Unix
domain socket: one plain socket per request, the request written at once
and the reply read to EOF (the daemon closes after answering).  Every
method maps to one endpoint; :meth:`ServiceClient.run` composes submit +
wait into the shape CLI tools want.

Failure handling is typed and bounded:

- **timeouts** — connections and reads both carry socket timeouts (a hung
  daemon can no longer block a client forever) and surface as
  :class:`ServiceTimeout`, never as a raw ``socket.timeout``;
- **refusals** — connection refused/reset surfaces as
  :class:`ServiceUnavailable` (both are :class:`ServiceError` subclasses,
  so existing ``except ServiceError`` call sites keep working); a reply
  cut short is a :class:`ServiceUnavailable` too, and one that is not
  HTTP a ``ServiceError`` 502;
- **retries** — ``retries > 0`` retries failed requests with jittered
  exponential backoff.  Reads of non-idempotent requests (a ``POST``
  whose bytes may already have reached the daemon) are *not* retried —
  only connect-phase failures and idempotent ``GET``\\ s are, so a retry
  can never double-submit a job;
- **deadlines** — a per-request ``deadline_s`` bounds the whole attempt
  loop (backoff sleeps included) against one wall clock.

Failover across shards is the fleet router's job
(:meth:`~repro.service.fleet.FleetRouter._dispatch`), not the client's.

The ``service.conn`` fault-injection site lives here: with an active
:class:`~repro.resilience.faults.FaultInjector` the client can be made to
drop or half-close connections deterministically, which is how the chaos
harness exercises every retry path.
"""

from __future__ import annotations

import json
import random
import socket
import time

from ..resilience import fault_at


class ServiceError(Exception):
    """A daemon-side refusal or failure, with the HTTP status attached."""

    def __init__(self, status: int, reason: str) -> None:
        self.status = status
        self.reason = reason
        super().__init__(f"[{status}] {reason}")


class ServiceTimeout(ServiceError):
    """A connect or read deadline expired talking to the daemon.

    ``phase`` is ``"connect"`` (no request bytes reached the daemon — safe
    to retry anything) or ``"read"`` (the request may have been received —
    only idempotent requests may retry).
    """

    def __init__(self, reason: str, phase: str = "read") -> None:
        self.phase = phase
        super().__init__(504, reason)


class ServiceUnavailable(ServiceError):
    """The daemon could not be reached (refused, reset, gone)."""

    def __init__(self, reason: str, phase: str = "connect") -> None:
        self.phase = phase
        super().__init__(503, reason)


#: Methods whose read-phase failures are safe to retry.
_IDEMPOTENT = frozenset({"GET", "HEAD"})


def _parse_reply(raw: bytes, address: str) -> tuple[int, str, object]:
    """``(status, reason, body)`` of one whole reply; the body is decoded
    JSON when the reply says so, else text.  A reply cut short is a lost
    connection; one that is not HTTP is a 502."""
    if not raw:
        raise ServiceUnavailable(f"{address} closed with no reply", phase="read")
    head, ended, body = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, _, rest = status_line.partition(" ")
    code, _, reason = rest.partition(" ")
    if not (version.startswith("HTTP/") and code.isascii() and code.isdigit()):
        raise ServiceError(502, f"{address} sent no HTTP status line")
    if not ended:
        raise ServiceUnavailable(f"{address} reply cut short", phase="read")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", str(len(body)))
    if not (length.isascii() and length.isdigit()):
        raise ServiceError(502, f"{address} sent Content-Length {length!r}")
    if len(body) < int(length):
        raise ServiceUnavailable(
            f"{address} reply cut short: {len(body)} of {length} body bytes",
            phase="read",
        )
    body = body[: int(length)]
    if "json" not in headers.get("content-type", ""):
        return int(code), reason, body.decode("utf-8", "replace")
    try:
        return int(code), reason, json.loads(body or b"{}")
    except ValueError:
        raise ServiceError(502, f"{address} sent a malformed JSON body") from None


class ServiceClient:
    """One daemon address; connections are per-request (the daemon closes
    after each response)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        socket_path: str | None = None,
        timeout: float = 600.0,
        connect_timeout: float = 5.0,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        jitter: float = 0.5,
        retry_seed: int | None = None,
        deadline_s: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter = min(1.0, max(0.0, jitter))
        self.deadline_s = deadline_s
        self._rng = random.Random(retry_seed)

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    def _connect(self) -> socket.socket:
        """A socket connected within ``connect_timeout``."""
        try:
            if self.socket_path is None:
                return socket.create_connection(
                    (self.host, self.port), self.connect_timeout
                )
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.connect_timeout)
                sock.connect(self.socket_path)
            except OSError:
                # A shard that is not listening yet fails every start-up
                # probe; each one must not hold a descriptor until collected.
                sock.close()
                raise
            return sock
        except socket.timeout as exc:
            raise ServiceTimeout(
                f"connect to {self.address} timed out", phase="connect"
            ) from exc
        except OSError as exc:
            raise ServiceUnavailable(f"cannot reach {self.address}: {exc}") from exc

    # -- one attempt ----------------------------------------------------------

    def _attempt(self, method: str, path: str, payload: dict | None,
                 read_timeout: float):
        """One request on a fresh connection: the request goes out in one
        write, and the reply is read to EOF (the daemon closes after it)."""
        fault = fault_at("service.conn")
        if fault == "drop":
            raise ServiceUnavailable("injected connection drop")
        if fault == "halfclose":
            raise ServiceTimeout("injected half-closed connection")
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n"
        )
        if payload is not None:
            head += "Content-Type: application/json\r\n"
        sock = self._connect()
        chunks = []
        try:
            sock.settimeout(read_timeout)
            sock.sendall(head.encode() + b"\r\n" + body)
            while chunk := sock.recv(1 << 16):
                chunks.append(chunk)
        except socket.timeout as exc:
            raise ServiceTimeout(
                f"{method} {path} to {self.address} timed out"
            ) from exc
        except OSError as exc:
            raise ServiceUnavailable(
                f"connection to {self.address} lost: {exc}", phase="read"
            ) from exc
        finally:
            sock.close()
        status, reason, data = _parse_reply(b"".join(chunks), self.address)
        if status >= 400:
            if isinstance(data, dict):
                reason = data.get("error", reason)
            raise ServiceError(status, reason)
        return status, data

    # -- the retry loop -------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        delay = min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))
        return delay * (1.0 - self.jitter * self._rng.random())

    def _request(self, method: str, path: str, payload: dict | None = None,
                 deadline_s: float | None = None):
        budget = deadline_s if deadline_s is not None else self.deadline_s
        deadline = None if budget is None else time.monotonic() + budget
        attempt = 0
        while True:
            read_timeout = self.timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceTimeout(
                        f"deadline exhausted before {method} {path}",
                        phase="connect",
                    )
                read_timeout = min(read_timeout, remaining)
            try:
                return self._attempt(method, path, payload, read_timeout)
            except (ServiceTimeout, ServiceUnavailable) as exc:
                retryable = exc.phase == "connect" or method in _IDEMPOTENT
                if not retryable or attempt >= self.retries:
                    raise
                delay = self._backoff(attempt)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= delay:
                        raise
                time.sleep(delay)
                attempt += 1

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")[1]

    def submit(
        self,
        case: str,
        kwargs: dict | None = None,
        priority: str = "batch",
        deadline_s: float | None = None,
        conflicts: int | None = None,
    ) -> dict:
        payload: dict = {"case": case, "priority": priority}
        if kwargs:
            payload["kwargs"] = kwargs
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if conflicts is not None:
            payload["conflicts"] = conflicts
        return self._request("POST", "/jobs", payload)[1]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")[1]["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")[1]

    def report(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/report")[1]

    def events(
        self,
        job_id: str,
        since: int = 0,
        wait_s: float = 0.0,
        until_terminal: bool = False,
    ) -> dict:
        """The job's state and its events from ``since`` on.  A long-poll
        (``wait_s > 0``) answers at the next event, or with
        ``until_terminal`` only once the job is terminal."""
        path = f"/jobs/{job_id}/events?since={since}&wait={wait_s}"
        if until_terminal:
            path += "&until=terminal"
        return self._request("GET", path)[1]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")[1]

    def metrics(self) -> dict:
        return self._request("GET", "/metrics.json")[1]

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics")[1]

    def fleet(self) -> dict:
        return self._request("GET", "/fleet")[1]

    def shutdown(self, mode: str = "drain") -> dict:
        return self._request("POST", "/shutdown", {"mode": mode})[1]

    # -- composed flows -------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        on_event=None,
    ) -> dict:
        """Block until the job is terminal; returns the final job summary.

        ``on_event`` (if given) is called with each
        :class:`~repro.service.protocol.JobEvent` JSON dict as it arrives.
        Each long-poll returns as soon as the job has a new event, and its
        reply carries the job's state, so nothing sleeps between polls.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        seq = 0
        while True:
            wait_s = 5.0
            if deadline is not None:
                wait_s = min(wait_s, max(0.0, deadline - time.monotonic()))
            batch = self.events(job_id, since=seq, wait_s=wait_s)
            for event in batch["events"]:
                seq = event["seq"] + 1
                if on_event is not None:
                    on_event(event)
            if batch["state"] in ("done", "failed", "cancelled"):
                return self.status(job_id)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {batch['state']}")

    def run(
        self,
        case: str,
        kwargs: dict | None = None,
        priority: str = "batch",
        timeout: float | None = None,
        on_event=None,
    ) -> dict:
        """Submit a case, wait for it, and return the full report.

        Raises :class:`ServiceError` if the job failed or was cancelled.
        """
        job = self.submit(case, kwargs=kwargs, priority=priority)
        final = self.wait(job["id"], timeout=timeout, on_event=on_event)
        if final["state"] != "done":
            raise ServiceError(
                409, final.get("error") or f"job ended {final['state']}"
            )
        return self.report(job["id"])

