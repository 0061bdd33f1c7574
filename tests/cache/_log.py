"""Test-only access to the trace log's records (``v<FORMAT>/traces.log``)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cache import CACHE_FORMAT_VERSION


def record_span(root, key: str) -> tuple[Path, int, int]:
    """The trace log under cache ``root``, and the byte span
    ``[start, end)`` of the latest record stored under ``key``.

    Walks the log by the ``end`` lengths in its headers, so it expects an
    undamaged log: damage a record only after locating it.
    """
    log = Path(root) / f"v{CACHE_FORMAT_VERSION}" / "traces.log"
    data = log.read_bytes()
    span = None
    pos = 0
    while pos < len(data):
        meta = json.loads(data[pos : data.index(b"\n", pos)])
        if meta["key"] == key:
            span = (pos, pos + meta["end"])
        pos += meta["end"]
    assert span is not None, f"no record for {key}"
    return (log, *span)
