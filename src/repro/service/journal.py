"""The crash-safe job journal: an append-only, fsync'd write-ahead log.

The fleet router journals every accepted job *before* acknowledging it and
every completion *with* its full result, so a router crash loses nothing:
on restart, accepted-but-unfinished jobs are resubmitted to the surviving
shards and finished jobs are served straight from their journaled results.
Deduplication is by **content hash** (the canonical digest of the request
payload), so replay can never run a job to completion twice — a pending
record whose hash already has a ``done`` record is satisfied from the
journal instead of being re-executed.

Record format — one JSON object per line::

    {"crc": <crc32>, "kind": "accept"|"done"|"failed"|"cancelled",
     "seq": <n>, ...payload}\\n

``crc`` is the CRC-32 of the record serialised *without* the crc field
(canonical ``sort_keys`` JSON), and ``seq`` is dense from 0, so a reader
can tell a torn or bit-rotted record from a good one without trusting the
JSON parser alone.  Appends go through one file descriptor opened with
``O_APPEND`` and are fsync'd before :meth:`JobJournal.append` returns —
an acknowledged record survives a kill -9 of the router and (modulo disk
lies) a power cut.

Recovery discipline: records are read in order and validation stops at
the first record that fails to parse, fails its CRC, breaks the seq
chain, or lacks the shape its kind needs (string ``job`` and ``hash``; an
``accept`` also carries a string ``case``, object-or-null ``kwargs`` and a
known ``priority``; a ``done`` result is an object); the file is
truncated at that byte offset.  Only the *tail* can be torn under the
append-only + fsync discipline, so truncation never drops an
acknowledged record — it removes exactly the garbage a crash mid-append
(or the chaos harness) left behind.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..obs import Counters
from .protocol import PRIORITIES

ACCEPT = "accept"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every kind but ``accept`` terminates a journaled job; a job accepted
#: without a terminal record is *pending* and is resubmitted on replay.
KINDS = (ACCEPT, DONE, FAILED, CANCELLED)


def _checksum(record: dict) -> int:
    body = json.dumps(record, sort_keys=True).encode()
    return zlib.crc32(body) & 0xFFFFFFFF


def _well_shaped(record: dict) -> bool:
    """Does a CRC-valid record carry the fields replay reads, typed as
    replay reads them?"""
    kind = record.get("kind")
    if kind not in KINDS:
        return False
    if not all(isinstance(record.get(key), str) for key in ("job", "hash")):
        return False
    if kind == ACCEPT:
        return (
            isinstance(record.get("case"), str)
            and isinstance(record.get("kwargs"), (dict, type(None)))
            and record.get("priority", "batch") in PRIORITIES
        )
    if kind == DONE and "result" in record:
        return isinstance(record["result"], dict)
    return True


@dataclass
class Replay:
    """What recovery found: jobs to resubmit and completions to reuse."""

    #: job id -> accept record, in acceptance order, *not* yet terminal.
    pending: dict[str, dict] = field(default_factory=dict)
    #: content hash -> the first ``done`` record carrying a result (later
    #: duplicates carry the identical deterministic result).
    completed: dict[str, dict] = field(default_factory=dict)
    #: job id -> terminal record of any kind (done/failed/cancelled).
    terminal: dict[str, dict] = field(default_factory=dict)


class JobJournal:
    """One append-only journal file plus its recovered state."""

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.stats = Counters(
            ("records_recovered", "records_appended", "truncated_bytes")
        )
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._records = self._recover()
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._seq = len(self._records)
        self._fsync_dir()

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> list[dict]:
        """Load every valid record; truncate the file at the first bad one."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return []
        records: list[dict] = []
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                break  # dangling partial record: torn final append
            line = data[offset:newline]
            record = self._validate(line, expect_seq=len(records))
            if record is None:
                break  # corrupt record: everything from here is suspect
            records.append(record)
            offset = newline + 1
        if offset < len(data):
            self.stats.inc("truncated_bytes", len(data) - offset)
            self._truncate(offset)
        self.stats.inc("records_recovered", len(records))
        return records

    @staticmethod
    def _validate(line: bytes, expect_seq: int) -> dict | None:
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            return None
        if not isinstance(record, dict):
            return None
        crc = record.pop("crc", None)
        if crc != _checksum(record) or record.get("seq") != expect_seq:
            return None
        return record if _well_shaped(record) else None

    def _truncate(self, offset: int) -> None:
        try:
            fd = os.open(self.path, os.O_WRONLY)
        except OSError:
            return
        try:
            os.ftruncate(fd, offset)
            if self.fsync:
                os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _fsync_dir(self) -> None:
        """Durably record the journal's existence in its directory."""
        if not self.fsync:
            return
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    # -- appending ------------------------------------------------------------

    def append(self, kind: str, **fields) -> dict:
        """Durably append one record; returns it (with seq and crc)."""
        if kind not in KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        with self._lock:
            record = {"kind": kind, "seq": self._seq, **fields}
            record["crc"] = _checksum(
                {k: v for k, v in record.items() if k != "crc"}
            )
            line = json.dumps(record, sort_keys=True).encode() + b"\n"
            view = memoryview(line)
            while view:
                try:
                    written = os.write(self._fd, view)
                except InterruptedError:
                    continue
                view = view[written:]
            if self.fsync:
                os.fsync(self._fd)
            self._seq += 1
            self._records.append(record)
            self.stats.inc("records_appended")
            return record

    # -- views ----------------------------------------------------------------

    def records(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def replay(self) -> Replay:
        """Fold the recovered records into resubmission/dedup state."""
        replay = Replay()
        with self._lock:
            records = list(self._records)
        for record in records:
            kind, job_id = record["kind"], record["job"]
            if kind == ACCEPT:
                replay.pending[job_id] = record
                continue
            replay.pending.pop(job_id, None)
            replay.terminal[job_id] = record
            # A ``done`` without a result refers to an earlier one.
            if kind == DONE and "result" in record:
                replay.completed.setdefault(record["hash"], record)
        return replay

    def close(self) -> None:
        with self._lock:
            try:
                os.close(self._fd)
            except OSError:
                pass

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
