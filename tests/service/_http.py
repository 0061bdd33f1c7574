"""Helpers for front-end tests: start a server on an ephemeral port, and
send requests no well-behaved client would."""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading


def launch(server):
    """Run ``server.serve`` (the daemon or the fleet router) on a daemon
    thread; return the thread and the bound ``(host, port)``."""
    bound = {}
    ready = threading.Event()

    def on_ready(addr):
        bound["addr"] = addr
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(port=0, ready=on_ready)),
        daemon=True,
    )
    thread.start()
    assert ready.wait(30), "server never bound its socket"
    return thread, bound["addr"]


def raw_status(host: str, port: int, data: bytes) -> int:
    """Send ``data`` verbatim, keep the connection open, and return the
    status code of the answer."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(data)
        status_line = sock.makefile("rb").readline().decode("latin-1")
    assert status_line, "connection closed with no status"
    return int(status_line.split()[1])


def get_json(host: str, port: int, path: str) -> tuple[int, dict]:
    """One GET with no client-side retries: ``(status, decoded body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def post_json(host: str, port: int, path: str, body) -> tuple[int, dict]:
    """One JSON POST with no client-side retries: ``(status, decoded body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()
