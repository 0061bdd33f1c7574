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

The SMT store is an append-only JSONL so concurrent workers can record
verdicts without coordination: each line is a self-contained
``{"k": key, "r": verdict}`` record, duplicate lines are idempotent
(the verdict is a deterministic function of the key), and a torn final
tail is truncated off the file on load.

Concurrency discipline (daemon workers + CLI runs sharing one directory):
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


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`DiskCache` handle."""

    trace_hits: int = 0
    trace_misses: int = 0
    trace_writes: int = 0
    smt_hits: int = 0
    smt_misses: int = 0
    smt_records: int = 0
    smt_loaded: int = 0
    #: Bytes cut off the verdict log's corrupt tail on open (a crashed
    #: appender's torn final records).
    smt_truncated_bytes: int = 0
    corrupt_entries: int = 0
    #: Entries that parsed but failed the well-formedness check (subset of
    #: corrupt_entries); each is evicted on sight.
    wellformed_rejects: int = 0
    #: Parametric family-trace entries (see ``repro.isla.parametric``).
    family_hits: int = 0
    family_misses: int = 0
    family_writes: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


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


def encode_trace(trace) -> tuple[str, list]:
    """A trace as text: its printed body, and the ``(name, sort)``
    signature of the external variables it mentions but never declares
    (the one encoding of cache entries and of trace-worker results)."""
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
    must be a dict lookup, not file IO).  Code that runs in a process
    should use :func:`open_cache`, which shares one handle per root; a
    second ``DiskCache`` on the same root models a second process.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)
    #: A temporary root that dies with its job: workers drop their handle
    #: on it after each task instead of keeping it for the process's life.
    ephemeral: bool = False

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._base = self.root / f"v{CACHE_FORMAT_VERSION}"
        self._traces = self._base / "traces"
        self._families = self._base / "families"
        self._smt_path = self._base / "smt" / "verdicts.jsonl"
        self._traces.mkdir(parents=True, exist_ok=True)
        self._smt_path.parent.mkdir(parents=True, exist_ok=True)
        self._smt: dict[str, str] = {}
        self._smt_pending: list[str] = []
        # One handle may be shared by every job thread of the daemon: the
        # in-memory views and pending buffers need mutual exclusion even
        # though the on-disk appends are self-synchronising.
        self._lock = threading.RLock()
        self._load_smt()

    # -- trace store --------------------------------------------------------

    def _trace_path(self, key: str) -> Path:
        return self._traces / key[:2] / f"{key}.itl"

    def _family_path(self, key: str) -> Path:
        return self._families / key[:2] / f"{key}.itl"

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

    def _write_entry(self, path: Path, trace, meta: dict) -> bool:
        """Atomically persist one trace entry; ``False`` on OS failure.

        No ``fsync``: the length and digest in the header make a damaged
        entry a counted miss (see the module docstring).
        """
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
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(f"{header}\n{body}".encode())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False  # a full disk must not fail the run
        return True

    def load_trace(self, key: str):
        """Return ``(trace, meta)`` for a cached Isla result, or ``None``.

        ``meta`` carries the stored execution metrics (``paths``,
        ``model_calls``, ``model_steps``, ``solver_checks``).  An entry
        that parses but fails the well-formedness checker is treated
        exactly like a torn write: counted, *evicted*, and reported as a
        miss — a cache must never be able to feed the proof pipeline an
        ill-formed trace (a buggy or version-skewed writer, whose entry
        carries a valid digest).
        """
        path = self._trace_path(key)
        status, hit = self._read_entry(path)
        if status == "miss":
            self.stats.trace_misses += 1
            return None
        if status == "corrupt":
            self.stats.corrupt_entries += 1
            self.stats.trace_misses += 1
            return None
        trace, meta = hit
        from ..analysis.wellformed import is_wellformed

        if not is_wellformed(trace):
            self.stats.wellformed_rejects += 1
            self.stats.corrupt_entries += 1
            self.stats.trace_misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.trace_hits += 1
        return trace, meta

    def store_trace(self, key: str, trace, meta: dict) -> None:
        """Persist a *complete* Isla result atomically.

        ``meta`` must already carry the metrics; the external-variable
        signature is computed here from the trace itself.
        """
        if self._write_entry(self._trace_path(key), trace, meta):
            self.stats.trace_writes += 1

    # -- parametric family store --------------------------------------------
    #
    # Same entry format as the trace store, in a sibling ``families/`` tree:
    # the stored trace is a *raw* (pre-simplification) parametric tree whose
    # free operand variables (``?f_imm12`` and friends) ride in the extern
    # signature, and the meta carries the family's instantiation contract
    # (placeholder register bases, fixed registers, operand dependence).
    # The well-formedness checker is not consulted on load: it judges
    # finalised traces, and a family is instantiated — then simplified and
    # checked — before anything downstream sees it.  A corrupt entry is a
    # miss; the family simply rebuilds.

    def load_family(self, key: str):
        """Return ``(raw_trace, meta)`` for a cached family, or ``None``."""
        status, hit = self._read_entry(self._family_path(key))
        if status == "ok":
            self.stats.family_hits += 1
            return hit
        if status == "corrupt":
            self.stats.corrupt_entries += 1
        self.stats.family_misses += 1
        return None

    def store_family(self, key: str, trace, meta: dict) -> None:
        """Persist one parametric family entry atomically."""
        if self._write_entry(self._family_path(key), trace, meta):
            self.stats.family_writes += 1

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
                    self.stats.corrupt_entries += 1
                    break
                try:
                    record = json.loads(data[offset:newline])
                    key, verdict = record["k"], record["r"]
                    # Only what smt_record writes is trusted on load.
                    if not isinstance(key, str) or verdict not in ("sat", "unsat"):
                        raise ValueError("not a sat/unsat verdict record")
                except (ValueError, KeyError, TypeError, RecursionError):
                    self.stats.corrupt_entries += 1
                else:
                    self._smt[key] = verdict
                    valid_end = newline + 1
                offset = newline + 1
            if valid_end < len(data):
                self.stats.smt_truncated_bytes = len(data) - valid_end
                try:
                    os.ftruncate(fd, valid_end)
                    os.fsync(fd)
                except OSError:
                    pass
        finally:
            os.close(fd)
        self.stats.smt_loaded = len(self._smt)

    def smt_lookup(self, key: str) -> str | None:
        verdict = self._smt.get(key)
        if verdict is None:
            self.stats.smt_misses += 1
        else:
            self.stats.smt_hits += 1
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
            self.stats.smt_records += 1
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


def _forget_parent_handles() -> None:
    # A forked child opens its own handles: the parent's pending verdicts
    # are the parent's to flush, and its locks may have been held mid-fork.
    global _HANDLES_LOCK
    _HANDLES.clear()
    _HANDLES_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_handles)


def open_cache(root) -> DiskCache:
    """This process's shared handle on ``root``, opened on first use.

    Keyed by absolute path, so the verdict log is parsed once per process
    and root however many runs, workers or jobs use it.
    """
    key = os.path.abspath(root)
    with _HANDLES_LOCK:
        cache = _HANDLES.get(key)
        if cache is None:
            cache = _HANDLES[key] = DiskCache(Path(key))
    return cache


def drop_cache(root) -> None:
    """Flush and forget this process's handle on ``root``, if it has one
    (for a temporary root that is about to be deleted)."""
    with _HANDLES_LOCK:
        cache = _HANDLES.pop(os.path.abspath(root), None)
    if cache is not None:
        cache.flush()


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
