"""The on-disk cache: a trace store and an SMT verdict store.

Layout (under the user-supplied root)::

    <root>/v<FORMAT>/traces/<k[:2]>/<k>.itl   one file per Isla result
    <root>/v<FORMAT>/smt/verdicts.jsonl       append-only check verdicts

Trace files carry a one-line JSON header (metrics, the sort signature of
*external* free variables — symbolic opcode bits and the like — that the
trace mentions but never declares, the entry's total length and a
blake2b-128 digest), followed by the printed ITL trace.

Durability policy: entries are never fsynced, because each validates
itself.  The header's length catches a truncated file, and its digest —
over the other header fields and the body — any same-length damage (a
power cut's unwritten blocks, bit rot, a hand edit).  Such an entry reads
as a counted miss, and a loaded trace must still pass the well-formedness
check, so a crash can cost warm entries, which are reproducible, but never
correctness.

A handle remembers every trace it has stored or loaded, the way it holds
the verdict log in memory: a trace key names a pure function of the
model, the opcode and the assumptions, so a hit on a trace this process
already holds is served from the handle without touching the file.  Only
the direct path's own result or a trace that passed the load-time checks
is ever held, so a held trace needs no re-check; the disk stays
untrusted, and every other handle (another process) still digests,
parses and checks each entry it reads.

The SMT store is an append-only JSONL so concurrent processes can record
verdicts without coordination: each line is a self-contained
``{"k": key, "r": verdict}`` record, duplicate lines are idempotent
(the verdict is a deterministic function of the key), and a torn final
tail is truncated off the file on load.

Concurrency discipline (daemons and CLI runs sharing one directory):
trace entries are written to a temp file and atomically renamed, so a
reader can never observe a half entry; JSONL appends go through
:func:`_append_exact`, which takes an advisory ``flock`` on the log file
(where available) and loops over short ``write``\\ s — two processes
appending concurrently can therefore never interleave bytes *within* a
record, only order whole records.  Losing the lock race costs latency,
never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
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


def _append_exact(path: Path, payload: bytes) -> bool:
    """Append ``payload`` to ``path`` without interleaving with other writers.

    Opens in ``O_APPEND``, takes an exclusive advisory lock on the file
    itself (no separate lockfile to leak), and loops until every byte is
    written — a short write mid-payload would otherwise let a concurrent
    appender land *inside* our record.  Returns ``False`` on any OS error:
    append-only stores treat a lost write as a warm-start loss, never a
    failure of the run.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    except OSError:
        return False
    try:
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                pass  # lock unsupported (NFS?): O_APPEND is the fallback
        view = memoryview(payload)
        while view:
            try:
                written = os.write(fd, view)
            except InterruptedError:
                continue
            view = view[written:]
        return True
    except OSError:
        return False
    finally:
        try:
            os.close(fd)  # releases the flock too
        except OSError:
            pass


#: Counters of one :class:`DiskCache` handle (``DiskCache.stats``).
#: ``trace_mem_hits`` (a subset of ``trace_hits``) were served from the
#: traces the handle holds, without reading the file;
#: ``smt_truncated_bytes`` were cut off the verdict log's corrupt tail on
#: open (a crashed appender's torn final records); ``wellformed_rejects``
#: (a subset of ``corrupt_entries``) parsed but failed the well-formedness
#: check, each evicted on sight.
DISK_COUNTERS = (
    "trace_hits", "trace_mem_hits", "trace_misses", "trace_writes",
    "smt_hits", "smt_misses", "smt_records", "smt_loaded", "smt_truncated_bytes",
    "corrupt_entries", "wellformed_rejects",
)


def _header_json(meta: dict) -> str:
    # Compact, so every header byte is significant: no same-length edit of
    # the header can parse back to the same fields.
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _entry_digest(meta: dict, body: str) -> str:
    """blake2b-128 of a trace entry: its header fields (all but ``end``
    and ``digest`` itself) and its body."""
    fields = {k: v for k, v in meta.items() if k not in ("end", "digest")}
    h = hashlib.blake2b(_header_json(fields).encode(), digest_size=16)
    h.update(b"\n")
    h.update(body.encode())
    return h.hexdigest()


def _seal_entry(trace, meta: dict) -> tuple[dict, str]:
    """A trace entry: its header fields, exactly as a reader parses them
    back, and its text (the header line, then the printed trace)."""
    body, extern = encode_trace(trace)
    # Round-trip through JSON first: the digest must be over the header
    # exactly as a reader will parse it back.
    meta = json.loads(json.dumps(dict(meta, extern=extern)))
    meta["digest"] = _entry_digest(meta, body)
    # Self-delimiting: the header records the total length so a
    # truncated file is detected without trusting the parser.
    meta["end"] = 0
    while True:
        header = _header_json(meta)
        total = len(header) + 1 + len(body)
        if meta["end"] == total:
            break
        meta["end"] = total
    return meta, f"{header}\n{body}"


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

    Creates the versioned layout on first use and loads the SMT verdict log
    eagerly (it is the hot store — consulted on every solver miss — so it
    must be a dict lookup, not file IO).  It also holds every trace it
    stores or loads, so it reads each entry from disk at most once.  Code
    that runs in a process should use :func:`open_cache`, which shares one
    handle per root; a second ``DiskCache`` on the same root models a
    second process.
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
        self._traces = self._base / "traces"
        self._smt_path = self._base / "smt" / "verdicts.jsonl"
        self._traces.mkdir(parents=True, exist_ok=True)
        self._smt_path.parent.mkdir(parents=True, exist_ok=True)
        self._smt: dict[str, str] = {}
        # Trace key -> (trace, meta): what this handle stored, or loaded
        # past the digest and well-formedness checks.
        self._held: dict[str, tuple] = {}
        self._smt_pending: list[str] = []
        # One handle may be shared by every job thread of the daemon: the
        # in-memory views and pending buffers need mutual exclusion even
        # though the on-disk appends are self-synchronising.
        self._lock = threading.RLock()
        self._load_smt()

    # -- trace store --------------------------------------------------------

    def _trace_path(self, key: str) -> Path:
        return self._traces / key[:2] / f"{key}.itl"

    def _read_entry(self, path: Path):
        """Parse one self-delimiting trace entry.

        Returns ``("miss", None)`` when the file is absent, ``("corrupt",
        None)`` for any malformed entry (torn write, damaged or hand-edited
        bytes, stale format), or ``("ok", (trace, meta))``.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return "miss", None
        try:
            text = data.decode()
            header, _, body = text.partition("\n")
            meta = json.loads(header)
            if meta.get("end") != len(text):
                raise ValueError("truncated trace entry")
            if meta.get("digest") != _entry_digest(meta, body):
                raise ValueError("trace entry digest mismatch")
            trace = decode_trace(body, meta.get("extern", []))
        except Exception:
            return "corrupt", None
        return "ok", (trace, meta)

    def _write_entry(self, path: Path, text: str) -> bool:
        """Atomically persist one trace entry; ``False`` on OS failure.

        No ``fsync``: the length and digest in the header make a damaged
        entry a counted miss (see the module docstring).
        """
        tmp: str | None = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(text.encode())
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False  # a full disk must not fail the run
        return True

    def load_trace(self, key: str):
        """Return ``(trace, meta)`` for a cached Isla result, or ``None``.

        ``meta`` carries the stored execution metrics (``paths``,
        ``model_calls``, ``model_steps``, ``solver_checks``).  A trace this
        handle already holds is served as is (``trace_mem_hits``); any
        other is read from disk.  An entry that parses but fails the
        well-formedness checker is treated exactly like a torn write:
        counted, *evicted*, and reported as a miss — a cache must never be
        able to feed the proof pipeline an ill-formed trace (a buggy or
        version-skewed writer, whose entry carries a valid digest).  Only
        an entry that passes is held.
        """
        held = self._held.get(key)
        if held is not None:
            self.stats.inc("trace_hits")
            self.stats.inc("trace_mem_hits")
            return held
        path = self._trace_path(key)
        status, hit = self._read_entry(path)
        if status == "miss":
            self.stats.inc("trace_misses")
            return None
        if status == "corrupt":
            self.stats.inc("corrupt_entries")
            self.stats.inc("trace_misses")
            return None
        trace, meta = hit
        from ..analysis.wellformed import is_wellformed

        if not is_wellformed(trace):
            self.stats.inc("wellformed_rejects")
            self.stats.inc("corrupt_entries")
            self.stats.inc("trace_misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._held[key] = hit
        self.stats.inc("trace_hits")
        return hit

    def store_trace(self, key: str, trace, meta: dict) -> None:
        """Persist a *complete* Isla result atomically, and hold it.

        ``meta`` must already carry the metrics; the external-variable
        signature is computed here from the trace itself.  The handle
        holds the result even when the write fails.
        """
        meta, text = _seal_entry(trace, meta)
        self._held[key] = (trace, meta)
        if self._write_entry(self._trace_path(key), text):
            self.stats.inc("trace_writes")

    # -- SMT verdict store --------------------------------------------------

    def _load_smt(self) -> None:
        """Load the verdict log; truncate its corrupt tail in place.

        Records mid-file that fail to parse, or that hold anything but a
        string key and a ``sat``/``unsat`` verdict, are skipped (they cost
        one warm verdict each), but a *trailing* run of bad bytes — a torn
        final append, a dangling line with no newline — is cut off the
        file under the same ``flock`` the appenders take, so the log
        stops accumulating garbage that every subsequent open would
        re-skip and every subsequent append would bury mid-file where it
        can no longer be distinguished from real corruption.
        """
        try:
            fd = os.open(self._smt_path, os.O_RDWR)
        except OSError:
            return
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                except OSError:
                    pass
            chunks = []
            while True:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
            data = b"".join(chunks)
            valid_end = 0  # byte offset just past the last valid record
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                if newline == -1:
                    # Dangling final line, no terminator: a torn write,
                    # whatever its bytes happen to parse as.
                    self.stats.inc("corrupt_entries")
                    break
                try:
                    record = json.loads(data[offset:newline])
                    key, verdict = record["k"], record["r"]
                    # Only what smt_record writes is trusted on load.
                    if not isinstance(key, str) or verdict not in ("sat", "unsat"):
                        raise ValueError("not a sat/unsat verdict record")
                except (ValueError, KeyError, TypeError, RecursionError):
                    self.stats.inc("corrupt_entries")
                else:
                    self._smt[key] = verdict
                    valid_end = newline + 1
                offset = newline + 1
            if valid_end < len(data):
                self.stats.inc("smt_truncated_bytes", len(data) - valid_end)
                try:
                    os.ftruncate(fd, valid_end)
                    os.fsync(fd)
                except OSError:
                    pass
        finally:
            os.close(fd)
        self.stats.inc("smt_loaded", len(self._smt))

    def smt_lookup(self, key: str) -> str | None:
        verdict = self._smt.get(key)
        if verdict is None:
            self.stats.inc("smt_misses")
        else:
            self.stats.inc("smt_hits")
        return verdict

    def smt_record(self, key: str, verdict: str) -> None:
        if verdict not in ("sat", "unsat"):
            raise ValueError(f"only sat/unsat verdicts persist, got {verdict!r}")
        with self._lock:
            if self._smt.get(key) == verdict:
                return
            self._smt[key] = verdict
            self._smt_pending.append(
                json.dumps({"k": key, "r": verdict}, sort_keys=True)
            )
            self.stats.inc("smt_records")
            full = len(self._smt_pending) >= 256
        if full:
            self.flush()

    def flush(self) -> None:
        """Append pending SMT verdicts (one locked, uninterleaved write).

        The handle lock is held across the append: two of this process's
        threads flushing concurrently must not both write the same pending
        lines (on-disk duplicates would be harmless, but clearing the
        buffer twice could drop records queued in between).
        """
        with self._lock:
            if not self._smt_pending:
                return
            payload = "".join(line + "\n" for line in self._smt_pending)
            if not _append_exact(self._smt_path, payload.encode()):
                return  # dropped verdicts are only a warm-start loss
            self._smt_pending.clear()

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "DiskCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- one handle per process and root ------------------------------------------

_HANDLES: dict[str, DiskCache] = {}
_HANDLES_LOCK = threading.Lock()


def open_cache(root) -> DiskCache:
    """This process's shared handle on ``root``, opened on first use.

    Keyed by absolute path, so the verdict log is parsed once per process
    and root however many runs or jobs use it.
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

    def walk(node) -> None:
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
        for sub in node.cases or ():
            walk(sub)

    walk(trace)
    return extern
