"""The on-disk cache: one append-only log of Isla results.

Layout (under the user-supplied root)::

    <root>/v<FORMAT>/traces.log            append-only Isla results

A trace record is a one-line JSON header (the trace key, metrics, the sort
signature of *external* free variables — symbolic opcode bits and the like
— that the trace mentions but never declares, the record's total length
``end`` and a blake2b-128 digest), followed by the printed ITL trace and a
newline.  The digest covers every header field but ``end`` and itself, the
key included, and the body: a record can be served only under the key it
was sealed with.

Durability policy: records are never fsynced, because each validates
itself.  The header's length catches a truncated record, and its digest
any same-length damage (a power cut's unwritten blocks, bit rot, a hand
edit).  Such a record reads as a counted miss, and a loaded trace must
still pass the well-formedness check, so a crash can cost warm entries,
which are reproducible, but never correctness.

A handle indexes the trace log (key -> offset and length of its latest
record) when it opens, and on a miss indexes only what other handles have
appended since.  A record that fails its checks is dropped from the index;
a later record for the same key (the direct path re-stores the trace it
recomputes) takes its place.  Duplicates arise only when two processes
compute the same trace, or when a damaged record is re-stored, so the log
grows by one record per distinct trace and never shrinks: bumping
``CACHE_FORMAT_VERSION`` or deleting the directory is how it is reset.

A handle also remembers every trace it has stored or loaded: a trace key
names a pure function of the
model, the opcode and the assumptions, so a hit on a trace this process
already holds is served from the handle without touching the file.  Only
the direct path's own result or a trace that passed the load-time checks
is ever held, so a held trace needs no re-check; the disk stays
untrusted, and every other handle (another process) still digests,
parses and checks each record it reads.

No SMT verdict is kept on disk.  A verdict carries nothing a reader
could check short of redoing the query, and an UNSAT answer read from a
file would prune a branch or skip a proof path unchecked; the solver's
in-process check cache already serves every verdict a run repeats.

Concurrency discipline (daemons and CLI runs sharing one directory): the
log is appended through :func:`_append_exact`, which takes an advisory
``flock`` on the log file (where available) and loops over short
``write``\\ s — two processes appending concurrently can therefore never
interleave bytes *within* a record, only order whole records.  On open,
the log's torn tail (a killed appender's partial final record) is cut off
under the same lock (:func:`_repair_log`).  Losing the lock race costs
latency, never correctness.  Each record is appended as it is stored, so
a handle has nothing to flush or close.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX only; the fallback below keeps non-POSIX hosts working.
    import fcntl
except ImportError:  # pragma: no cover - exercised only on non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..obs import Counters
from ..smt.sorts import sort_from_text, sort_to_text
from .keys import CACHE_FORMAT_VERSION


def _flock(fd: int, unlock: bool = False) -> None:
    """Take (or release) an exclusive advisory lock on ``fd``."""
    if fcntl is not None:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN if unlock else fcntl.LOCK_EX)
        except OSError:
            pass  # lock unsupported (NFS?): O_APPEND is the fallback


def _append_exact(path: Path, payload: bytes) -> int | None:
    """Append ``payload`` to ``path`` without interleaving with other writers.

    Opens in ``O_APPEND``, takes an exclusive advisory lock on the file
    itself (no separate lockfile to leak), and loops until every byte is
    written — a short write mid-payload would otherwise let a concurrent
    appender land *inside* our record.  A write that fails part-way is cut
    back off under the lock.  Returns the offset just past the payload, or
    ``None`` on any OS error: append-only stores treat a lost write as a
    warm-start loss, never a failure of the run.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    except OSError:
        return None
    start = None
    try:
        _flock(fd)
        start = os.lseek(fd, 0, os.SEEK_END)
        view = memoryview(payload)
        while view:
            try:
                written = os.write(fd, view)
            except InterruptedError:
                continue
            view = view[written:]
        return start + len(payload)
    except OSError:
        if start is not None:
            try:
                os.ftruncate(fd, start)
            except OSError:
                pass
        return None
    finally:
        try:
            os.close(fd)  # releases the flock too
        except OSError:
            pass


def _repair_log(fd: int, scan) -> None:
    """Read the append-only log open read-write on ``fd`` and cut off its
    torn tail.

    ``scan(data)`` consumes the log's bytes and returns the offset just
    past its last valid record.  Whatever follows — a torn final append, a
    dangling line with no newline, trailing garbage — is truncated off the
    file (and the cut fsynced) under the same ``flock`` the appenders take,
    so the log stops accumulating bytes that every later open would
    re-skip and every later append would bury mid-file, where they can no
    longer be told from real corruption.
    """
    _flock(fd)
    try:
        chunks = []
        while True:
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
        data = b"".join(chunks)
        valid_end = scan(data)
        if valid_end < len(data):
            try:
                os.ftruncate(fd, valid_end)
                os.fsync(fd)
            except OSError:
                pass
    finally:
        _flock(fd, unlock=True)


#: Counters of one :class:`DiskCache` handle (``DiskCache.stats``).
#: ``trace_mem_hits`` (a subset of ``trace_hits``) were served from the
#: traces the handle holds, without reading the log; ``wellformed_rejects``
#: (a subset of ``corrupt_entries``) parsed but failed the well-formedness
#: check, each evicted on sight.
DISK_COUNTERS = (
    "trace_hits", "trace_mem_hits", "trace_misses", "trace_writes",
    "corrupt_entries", "wellformed_rejects",
)


def _header_json(meta: dict) -> str:
    # Compact, so every header byte is significant: no same-length edit of
    # the header can parse back to the same fields.
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _entry_digest(meta: dict, body: str) -> str:
    """blake2b-128 of a trace record: its header fields (all but ``end``
    and ``digest`` itself, so the key too) and its body."""
    fields = {k: v for k, v in meta.items() if k not in ("end", "digest")}
    h = hashlib.blake2b(_header_json(fields).encode(), digest_size=16)
    h.update(b"\n")
    h.update(body.encode())
    return h.hexdigest()


def _seal_entry(key: str, trace, meta: dict) -> tuple[dict, bytes]:
    """A trace record: its header fields, exactly as a reader parses them
    back, and its bytes (the header line, then the printed trace and a
    newline)."""
    body, extern = encode_trace(trace)
    body += "\n"
    # Round-trip through JSON first: the digest must be over the header
    # exactly as a reader will parse it back.
    meta = json.loads(json.dumps(dict(meta, extern=extern, key=key)))
    meta["digest"] = _entry_digest(meta, body)
    # Self-delimiting: the header records the total length so a
    # truncated record is detected without trusting the parser.
    meta["end"] = 0
    while True:
        header = _header_json(meta)
        total = len(header) + 1 + len(body.encode())
        if meta["end"] == total:
            break
        meta["end"] = total
    return meta, f"{header}\n{body}".encode()


def encode_trace(trace) -> tuple[str, list]:
    """A trace as text: its printed body, and the ``(name, sort)``
    signature of the external variables it mentions but never declares
    (the encoding of trace cache entries)."""
    from ..itl.printer import trace_to_sexpr

    extern = sorted((v.name, sort_to_text(v.sort)) for v in _undeclared_vars(trace))
    return trace_to_sexpr(trace), extern


def decode_trace(body: str, extern):
    """Parse :func:`encode_trace`'s output into this process's terms."""
    from ..itl.parser import parse_trace
    from ..smt import builder as B

    env = {name: B.var(name, sort_from_text(sort)) for name, sort in extern}
    return parse_trace(body, env=env)


@dataclass
class DiskCache:
    """A handle on one on-disk cache directory.

    Creates the versioned layout on first use and indexes the trace log.
    It holds every trace it stores or loads, so it reads each record from
    disk at most once.  Code that runs in a process should use
    :func:`open_cache`, which shares one handle per root; a second
    ``DiskCache`` on the same root models a second process.
    """

    root: Path
    #: Process-level counters of this handle, also counted in the current
    #: run scope as ``disk.*`` (see :mod:`repro.obs`).
    stats: Counters = field(
        default_factory=lambda: Counters(DISK_COUNTERS, scoped_as="disk.")
    )

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._base = self.root / f"v{CACHE_FORMAT_VERSION}"
        self._log_path = self._base / "traces.log"
        self._base.mkdir(parents=True, exist_ok=True)
        # Trace key -> (trace, meta): what this handle stored, or loaded
        # past the digest and well-formedness checks.
        self._held: dict[str, tuple] = {}
        # Trace key -> (offset, length) of its latest record in the log,
        # which is indexed up to ``_indexed_end``.
        self._index: dict[str, tuple[int, int]] = {}
        self._indexed_end = 0
        # One handle per process and root is shared by every thread that
        # opens that root (in-process shards, concurrent ``main()`` calls):
        # the index needs mutual exclusion even though the on-disk appends
        # are self-synchronising.
        self._lock = threading.RLock()
        self._log_fd = os.open(self._log_path, os.O_RDWR | os.O_CREAT, 0o644)
        _repair_log(self._log_fd, self._index_opened_log)

    def __del__(self) -> None:
        fd = getattr(self, "_log_fd", None)
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass

    # -- trace store --------------------------------------------------------

    def _index_opened_log(self, data: bytes) -> int:
        end = self._indexed_end = self._index_records(data, 0)
        if end < len(data):
            self.stats.inc("corrupt_entries")  # a torn tail, cut off
        return end

    def _index_records(self, data: bytes, base: int) -> int:
        """Index the records in ``data``, the log's bytes from offset
        ``base``; return the offset in ``data`` just past the last one.

        A record starts with a header line that parses to a string ``key``
        and an integer ``end``, and its ``end`` bytes fit and end with a
        newline.  Anything else is skipped a line at a time and, once a
        record follows it, counted as one corrupt entry.  What follows the
        last record is the caller's: a torn tail on open, or an append
        still in flight on a miss.
        """
        pos = valid_end = 0
        while True:
            newline = data.find(b"\n", pos)
            if newline == -1:
                return valid_end
            length = None
            if data.startswith(b"{", pos):
                try:
                    meta = json.loads(data[pos:newline])
                    key, length = meta["key"], meta["end"]
                    if not (
                        isinstance(key, str)
                        and type(length) is int
                        and newline - pos < length <= len(data) - pos
                        and data[pos + length - 1] == 0x0A
                    ):
                        length = None
                except (ValueError, KeyError, TypeError, RecursionError):
                    length = None
            if length is None:
                pos = newline + 1
                continue
            if pos > valid_end:
                self.stats.inc("corrupt_entries")  # a damaged run, skipped
            self._index[key] = (base + pos, length)
            pos = valid_end = pos + length

    def _index_tail(self) -> None:
        """Index what other handles appended since this one last looked."""
        try:
            size = os.fstat(self._log_fd).st_size
            if size <= self._indexed_end:
                return
            data = os.pread(self._log_fd, size - self._indexed_end, self._indexed_end)
        except OSError:
            return
        self._indexed_end += self._index_records(data, self._indexed_end)

    def _read_entry(self, key: str, span: tuple[int, int]):
        """Read and check the record at ``span``: ``(trace, meta)``, or
        ``None`` for any malformed record (torn write, damaged or
        hand-edited bytes, a header sealed under another key)."""
        offset, length = span
        try:
            data = os.pread(self._log_fd, length, offset)
            text = data.decode()
            header, _, body = text.partition("\n")
            meta = json.loads(header)
            if meta.get("end") != len(data) or meta.get("key") != key:
                raise ValueError("truncated or misplaced trace record")
            if meta.get("digest") != _entry_digest(meta, body):
                raise ValueError("trace record digest mismatch")
            trace = decode_trace(body, meta.get("extern", []))
        except Exception:
            return None
        return trace, meta

    def load_trace(self, key: str):
        """Return ``(trace, meta)`` for a cached Isla result, or ``None``.

        ``meta`` carries the stored execution metrics (``paths``,
        ``model_calls``, ``model_steps``, ``solver_checks``).  A trace this
        handle already holds is served as is (``trace_mem_hits``); any
        other is read from the log.  A record that parses but fails the
        well-formedness checker is treated exactly like a torn write:
        counted, *evicted* from the index, and reported as a miss — a cache
        must never be able to feed the proof pipeline an ill-formed trace
        (a buggy or version-skewed writer, whose record carries a valid
        digest).  Only a record that passes is held.
        """
        held = self._held.get(key)
        if held is not None:
            self.stats.inc("trace_hits")
            self.stats.inc("trace_mem_hits")
            return held
        with self._lock:
            span = self._index.get(key)
            if span is None:
                self._index_tail()
                span = self._index.get(key)
        if span is None:
            self.stats.inc("trace_misses")
            return None
        hit = self._read_entry(key, span)
        if hit is not None:
            from ..analysis.wellformed import is_wellformed

            if not is_wellformed(hit[0]):
                self.stats.inc("wellformed_rejects")
                hit = None
        if hit is None:
            with self._lock:
                if self._index.get(key) == span:
                    del self._index[key]
            self.stats.inc("corrupt_entries")
            self.stats.inc("trace_misses")
            return None
        self._held[key] = hit
        self.stats.inc("trace_hits")
        return hit

    def store_trace(self, key: str, trace, meta: dict) -> None:
        """Append a *complete* Isla result to the log, and hold it.

        ``meta`` must already carry the metrics; the external-variable
        signature is computed here from the trace itself.  The handle
        holds the result even when the write fails.
        """
        meta, record = _seal_entry(key, trace, meta)
        self._held[key] = (trace, meta)
        end = _append_exact(self._log_path, record)
        if end is None:
            return
        self.stats.inc("trace_writes")
        with self._lock:
            if end - len(record) == self._indexed_end:
                self._indexed_end = end  # nothing to index: the trace is held


# -- one handle per process and root ------------------------------------------

_HANDLES: dict[str, DiskCache] = {}
_HANDLES_LOCK = threading.Lock()


def open_cache(root) -> DiskCache:
    """This process's shared handle on ``root``, opened on first use.

    Keyed by absolute path, so the trace log is indexed once per process
    and root however many runs or jobs use it, and a trace one run stored
    or loaded is served from memory to the next.
    """
    key = os.path.abspath(root)
    with _HANDLES_LOCK:
        cache = _HANDLES.get(key)
        if cache is None:
            cache = _HANDLES[key] = DiskCache(Path(key))
    return cache


def resolve_cache(cache_dir: str | None, no_cache: bool = False) -> DiskCache | None:
    """The CLIs' cache: ``--no-cache`` > ``--cache-dir`` >
    ``$REPRO_CACHE_DIR`` > none, as this process's shared handle."""
    if no_cache:
        return None
    path = cache_dir or os.environ.get("REPRO_CACHE_DIR")
    return open_cache(path) if path else None


def _undeclared_vars(trace):
    """Free variables a trace mentions but never declares or defines.

    These are *external* symbols (symbolic opcode bits, device-chosen
    values threaded across assumptions) whose sorts must be recorded next
    to the trace so the parser can rebind them on load.
    """
    from ..itl import events as E

    declared: set = set()
    extern: set = set()
    # An explicit stack, not a recursive closure: the closure would be a
    # reference cycle left for the cyclic collector on every call.
    stack = [trace]
    while stack:
        node = stack.pop()
        for event in node.events:
            bound = ()
            if isinstance(event, (E.DeclareConst, E.DefineConst)):
                declared.add(event.var)
            if isinstance(event, E.DefineConst):
                bound = event.expr.free_vars()
            elif isinstance(event, (E.ReadReg, E.WriteReg, E.AssumeReg)):
                bound = event.value.free_vars()
            elif isinstance(event, (E.ReadMem, E.WriteMem)):
                bound = event.addr.free_vars() | event.data.free_vars()
            elif isinstance(event, (E.Assert, E.Assume)):
                bound = event.expr.free_vars()
            for v in bound:
                if v not in declared:
                    extern.add(v)
        stack.extend(reversed(node.cases or ()))
    return extern
