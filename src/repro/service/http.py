"""The one HTTP front end, shared by the daemon and the fleet router.

:class:`HttpFrontEnd` owns everything about speaking HTTP: the listener
(local TCP, default loopback, or a Unix domain socket), a bounded request
parser that fails closed, the thread-safe stop hop, and the job surface
both front ends expose.  :class:`~repro.service.server.VerificationService`
and :class:`~repro.service.fleet.FleetRouter` supply only their job table
and what differs between them: ``health()``, the pre-render gauge
refresh, extra GET routes, and what happens once the listener closes.

HTTP surface (all JSON unless noted; one request per connection)::

    GET  /healthz                 liveness + uptime
    POST /jobs                    submit {case, kwargs?, priority?,
                                          deadline_s?, conflicts?} -> 202
    GET  /jobs                    job summaries
    GET  /jobs/<id>               one summary
    GET  /jobs/<id>/report        full result incl. certificate (409 if
                                  not finished)
    GET  /jobs/<id>/events        ?since=N&wait=S  long-poll progress;
                                  &until=terminal waits for the end, and
                                  a done reply then carries "report"
    POST /jobs/<id>/cancel        cancel queued (flag running) jobs
    GET  /metrics                 Prometheus text exposition
    GET  /metrics.json            raw telemetry snapshot
    POST /shutdown                graceful drain; {"mode": "abort"} also
                                  drains in-flight blocks to ``unknown``
    GET  /fleet                   (router only) shard/breaker/journal view

The parser's bounds are constants, not options.  A request that breaks
one is answered with its status and the connection closes:

    414  request line longer than ``MAX_LINE`` bytes
    431  a header line longer than ``MAX_LINE``, or over ``MAX_HEADERS``
    400  a malformed request line or ``Content-Length``, a truncated body
    413  ``Content-Length`` over ``MAX_BODY``, before any body is read
    408  head and body not received within ``READ_TIMEOUT_S``

Those, and every other 400 for a malformed request, count in
``http_rejects``; ``http_errors`` counts only server-side bugs (the
catch-all 500).
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from typing import Callable, NamedTuple

from .protocol import AdmissionError, JobRecord, SubmitRequest, parse_events_query
from .telemetry import Telemetry

#: Longest request or header line, terminator included.
MAX_LINE = 8192
#: Most header lines in one request.
MAX_HEADERS = 100
#: Largest body; every body the services accept is a small JSON object.
MAX_BODY = 1 << 20
#: Deadline for the whole head and body to arrive.
READ_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Content Too Large", 414: "URI Too Long", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
}

#: ``POST /shutdown`` modes a client may ask for.  ``crash`` (abandon
#: everything, the chaos harness's in-process SIGKILL) is deliberately
#: not one of them: only :meth:`HttpFrontEnd.request_stop` reaches it.
SHUTDOWN_MODES = ("drain", "abort")


class HttpError(Exception):
    """The client's request is refused with ``status``; ``reason`` is the
    wire-friendly ``error`` field."""

    def __init__(self, status: int, reason: str) -> None:
        self.status = status
        self.reason = reason
        super().__init__(f"{status} {reason}")


class Reply(NamedTuple):
    """One answer from a route, written by the front end."""

    status: int
    payload: object
    content_type: str = "application/json"
    #: Run once the reply is on the wire (the ``/shutdown`` stop).
    then: Callable[[], None] | None = None


async def _read_line(reader, status: int, what: str) -> bytes:
    """One ``\\n``-terminated line (shorter only at EOF), or ``status``."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        line = exc.partial
    except asyncio.LimitOverrunError:
        raise HttpError(status, f"{what} too long") from None
    if len(line) > MAX_LINE:
        raise HttpError(status, f"{what} too long")
    return line


async def _read_request(reader):
    request_line = await _read_line(reader, 414, "request line")
    if not request_line:
        return None
    try:
        method, target, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
        parsed = urllib.parse.urlsplit(target)
    except ValueError:
        raise HttpError(400, "bad request line") from None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader, 431, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(431, f"more than {MAX_HEADERS} headers")
    try:
        length = int(headers.get("content-length", 0) or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(400, "bad Content-Length")
    if length > MAX_BODY:
        raise HttpError(413, f"body over {MAX_BODY} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HttpError(400, "truncated body") from None
    query = dict(urllib.parse.parse_qsl(parsed.query))
    return method, parsed.path, query, body


async def read_request(reader):
    """``(method, path, query, body)`` from one request on ``reader``.

    Returns ``None`` when the peer closes before sending a byte, and
    raises :class:`HttpError` for any request outside the module's
    bounds; nothing else escapes but connection errors.
    """
    try:
        return await asyncio.wait_for(_read_request(reader), READ_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise HttpError(408, "request not received in time") from None


async def _respond(
    writer, status: int, payload, content_type: str = "application/json"
) -> None:
    if content_type == "application/json":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    else:
        body = payload if isinstance(payload, bytes) else payload.encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()


def _shutdown_mode(body: bytes) -> str:
    if not body:
        return "drain"
    try:
        payload = json.loads(body.decode())
    except ValueError:
        raise HttpError(400, "shutdown body must be a JSON object") from None
    if not isinstance(payload, dict):
        raise HttpError(400, "shutdown body must be a JSON object")
    mode = payload.get("mode", "drain")
    if mode not in SHUTDOWN_MODES:
        raise HttpError(400, f"'mode' must be one of {SHUTDOWN_MODES}")
    return mode


class HttpFrontEnd:
    """The asyncio HTTP front end over a job table.

    A subclass sets ``telemetry`` and implements the job table and
    lifecycle methods below that raise :class:`NotImplementedError`; it
    may override :meth:`refresh_gauges` and :meth:`extra_routes`.
    """

    telemetry: Telemetry
    _stop_event: asyncio.Event | None = None
    _stop_mode = "drain"
    _loop: asyncio.AbstractEventLoop | None = None

    def start(self) -> None:
        """Bring up resident state; called by :meth:`serve` before listening."""
        raise NotImplementedError

    async def after_close(self, mode: str) -> None:
        """Release resident state once the listener has closed."""
        raise NotImplementedError

    def submit(self, request: SubmitRequest) -> JobRecord:
        raise NotImplementedError

    def job(self, job_id: str) -> JobRecord | None:
        raise NotImplementedError

    def job_snapshots(self) -> list[dict]:
        raise NotImplementedError

    def cancel(self, job) -> tuple[bool, str | None]:
        """``(cancelled, note)``; the note says why not, if not."""
        raise NotImplementedError

    def health(self) -> dict:
        """The ``/healthz`` body, less ``uptime_s``."""
        raise NotImplementedError

    def refresh_gauges(self) -> None:
        """Re-derive gauges from resident state before a metrics render."""

    def extra_routes(self) -> dict[str, Callable[[], dict]]:
        """GET routes beyond the shared surface, by path segment."""
        return {}

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        ready=None,
    ) -> None:
        """Run the HTTP front end until :meth:`request_stop` fires.

        ``ready`` is an optional callback invoked with the bound address
        (``(host, port)`` tuple or the socket path) once listening.
        """
        self.start()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if socket_path is not None:
            server = await asyncio.start_unix_server(self._handle, path=socket_path)
            bound: object = socket_path
        else:
            server = await asyncio.start_server(self._handle, host=host, port=port)
            bound = server.sockets[0].getsockname()[:2]
        self.bound = bound
        if ready is not None:
            ready(bound)
        self.telemetry.log("listening", address=str(bound))
        async with server:
            await self._stop_event.wait()
            server.close()
            await server.wait_closed()
        await self.after_close(self._stop_mode)

    def request_stop(self, mode: str = "drain") -> None:
        """Trigger the serve() loop to exit (thread/signal-handler safe).

        ``mode`` is ``"drain"`` (finish everything), ``"abort"`` (finish
        current blocks only), or ``"crash"`` (abandon everything on the
        floor — the chaos harness's stand-in for SIGKILL when the shard
        shares the test process); :meth:`after_close` interprets it.
        """
        self._stop_mode = mode
        if self._stop_event is None:
            return
        # An asyncio.Event set from a foreign thread does not wake the
        # selector; without the threadsafe hop the serve loop only notices
        # on its next unrelated I/O — which never comes once heartbeats
        # stop.  Fall back to a direct set when called from the loop itself
        # (the /shutdown route) or after the loop is gone.
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
                return
            except RuntimeError:
                pass
        self._stop_event.set()

    # -- request plumbing ------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            path = None
            try:
                request = await read_request(reader)
                if request is None:
                    return
                path = request[1]
                reply = await self._route(*request)
            except HttpError as exc:
                self.telemetry.inc("http_rejects")
                reply = Reply(exc.status, {"error": exc.reason})
            except ConnectionError:
                raise
            except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the loop
                self.telemetry.inc("http_errors")
                self.telemetry.log("http-error", path=path, error=str(exc))
                reply = Reply(500, {"error": str(exc)})
            await _respond(writer, reply.status, reply.payload, reply.content_type)
            if reply.then is not None:
                reply.then()
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method, path, query, body) -> Reply:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            uptime = self.telemetry.snapshot()["uptime_s"]
            return Reply(200, {**self.health(), "uptime_s": uptime})
        if method == "POST" and parts == ["jobs"]:
            return self._submit(body)
        if method == "GET" and parts == ["jobs"]:
            return Reply(200, {"jobs": self.job_snapshots()})
        if len(parts) >= 2 and parts[0] == "jobs":
            return await self._job_route(method, parts[1], parts[2:], query)
        if method == "GET" and parts == ["metrics"]:
            self.refresh_gauges()
            return Reply(
                200, self.telemetry.render_prometheus(),
                content_type="text/plain; version=0.0.4",
            )
        if method == "GET" and parts == ["metrics.json"]:
            self.refresh_gauges()
            return Reply(200, self.telemetry.snapshot())
        if method == "POST" and parts == ["shutdown"]:
            mode = _shutdown_mode(body)
            return Reply(
                200, {"draining": True, "mode": mode},
                then=lambda: self.request_stop(mode),
            )
        extra = self.extra_routes().get(parts[0]) if len(parts) == 1 else None
        if method == "GET" and extra is not None:
            return Reply(200, extra())
        return Reply(404, {"error": f"no route {path}"})

    def _submit(self, body: bytes) -> Reply:
        try:
            request = SubmitRequest.from_json(json.loads(body.decode() or "{}"))
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        try:
            job = self.submit(request)
        except AdmissionError as exc:
            status = 404 if "unknown case" in exc.reason else 429
            return Reply(status, {"error": exc.reason})
        return Reply(202, job.snapshot())

    async def _job_route(self, method, job_id, rest, query) -> Reply:
        job = self.job(job_id)
        if job is None:
            return Reply(404, {"error": f"no job {job_id}"})
        if method == "GET" and not rest:
            return Reply(200, job.snapshot())
        if method == "GET" and rest == ["report"]:
            if job.state == "done":
                return Reply(200, job.result)
            error = job.error or (job.state if job.terminal else "not finished")
            return Reply(409, {"error": error, "state": job.state})
        if method == "GET" and rest == ["events"]:
            try:
                since, wait_s, terminal = parse_events_query(query)
            except ValueError as exc:
                raise HttpError(400, str(exc)) from None
            if wait_s > 0:
                # Push, not poll: the job wakes this future when its next
                # event (or terminal event) is recorded, from whichever
                # thread records it.
                waiter = job.waiter(
                    since, asyncio.get_running_loop(), terminal=terminal
                )
                if waiter is not None:
                    try:
                        await asyncio.wait_for(waiter, wait_s)
                    except asyncio.TimeoutError:
                        pass
                    finally:
                        job.drop_waiter(waiter)
            state, events = job.poll(since)
            reply = {"state": state, "events": [e.to_json() for e in events]}
            if terminal and state == "done":
                reply["report"] = job.result  # spares a /report request
            return Reply(200, reply)
        if method == "POST" and rest == ["cancel"]:
            cancelled, note = self.cancel(job)
            return Reply(
                200, {"cancelled": cancelled, "state": job.state, "note": note}
            )
        return Reply(405, {"error": "unsupported"})
