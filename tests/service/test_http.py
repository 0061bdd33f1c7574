"""The shared request parser: bounded, and it fails closed.

``read_request`` is driven on an in-memory :class:`asyncio.StreamReader`
with well-formed and malformed request lines, headers, lengths and
truncated bodies.  Every input yields a request or an :class:`HttpError`
carrying a status — never another exception — and only an empty
connection yields ``None``.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.service import http
from repro.service.http import MAX_BODY, MAX_HEADERS, MAX_LINE, HttpError

SRC = Path(http.__file__).resolve().parents[1]  # .../src/repro


def _parse(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await http.read_request(reader)

    return asyncio.run(run())


def _status(data: bytes) -> int:
    with pytest.raises(HttpError) as excinfo:
        _parse(data)
    return excinfo.value.status


_eol = st.sampled_from([b"\r\n", b"\n"])
_pad = st.sampled_from([0, 1, 100, MAX_LINE - 30, MAX_LINE + 1, 70_000])
_request_lines = st.one_of(
    st.sampled_from([
        b"GET /healthz HTTP/1.1", b"POST /jobs HTTP/1.1",
        b"GET /jobs/job-1/events?since=2&wait=x HTTP/1.1",
        b"GET http://[::1 HTTP/1.1", b"GET /", b"GARBAGE", b"", b" ",
    ]),
    _pad.map(lambda n: b"GET /" + b"a" * n + b" HTTP/1.1"),
    st.binary(max_size=40),
)
_lengths = st.one_of(
    st.integers(-3, 40).map(lambda n: str(n).encode()),
    st.sampled_from([MAX_BODY, MAX_BODY + 1, 99_999_999]).map(
        lambda n: str(n).encode()),
    st.sampled_from([b"", b"abc", b"1e3", b" 7 ", b"+2", b"0x10", b"9" * 5000]),
)
_header_lines = st.one_of(
    _lengths.map(lambda v: b"Content-Length: " + v),
    _pad.map(lambda n: b"X-Pad: " + b"a" * n),
    st.binary(max_size=30).filter(lambda b: b"\n" not in b),
)
_headers = st.one_of(
    st.lists(_header_lines, max_size=6),
    st.sampled_from([MAX_HEADERS, MAX_HEADERS + 1]).map(
        lambda n: [b"X-A: b"] * n),
)


@st.composite
def _requests(draw) -> bytes:
    eol = draw(_eol)
    data = draw(_request_lines) + eol
    for line in draw(_headers):
        data += line + eol
    if draw(st.booleans()):
        data += eol  # end of head; without it the head is cut short
    return data + draw(st.binary(max_size=50))


@settings(max_examples=300, deadline=None)
@given(_requests())
def test_every_input_gets_a_request_or_a_status(data):
    try:
        request = _parse(data)
    except HttpError as exc:
        assert exc.status in (400, 413, 414, 431), exc
        return
    method, path, query, body = request
    assert isinstance(method, str) and isinstance(path, str)
    assert isinstance(query, dict) and isinstance(body, bytes)
    assert len(body) <= MAX_BODY


def test_empty_connection_is_a_clean_close():
    assert _parse(b"") is None


def test_well_formed_request_parses():
    data = b"POST /jobs?since=3 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
    assert _parse(data) == ("POST", "/jobs", {"since": "3"}, b"{}")


def test_bounds_are_inclusive():
    line = b"GET /" + b"a" * (MAX_LINE - len(b"GET / HTTP/1.1\r\n")) + b" HTTP/1.1"
    assert len(line) + 2 == MAX_LINE
    assert _parse(line + b"\r\n\r\n")[0] == "GET"
    assert _status(line + b"a\r\n\r\n") == 414
    head = b"GET / HTTP/1.1\r\n" + b"X-A: b\r\n" * MAX_HEADERS
    assert _parse(head + b"\r\n")[0] == "GET"
    assert _status(head + b"X-A: b\r\n\r\n") == 431
    post = b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n{}"
    assert _status(post % MAX_BODY) == 400  # within the cap, but truncated
    assert _status(post % (MAX_BODY + 1)) == 413


def test_read_deadline_is_408(monkeypatch):
    monkeypatch.setattr(http, "READ_TIMEOUT_S", 0.05)

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\n{}")
        return await http.read_request(reader)  # no EOF: the body never ends

    with pytest.raises(HttpError) as excinfo:
        asyncio.run(run())
    assert excinfo.value.status == 408


def test_only_the_http_module_listens_or_reads_requests():
    """One front end: no other module in ``src/repro`` opens a listener
    or reads a request off an asyncio stream."""
    pattern = re.compile(
        r"start_(unix_)?server\(|await\s+\w+\.(readline|readuntil|readexactly)\("
    )
    offenders = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text())
    )
    assert offenders == ["service/http.py"]
