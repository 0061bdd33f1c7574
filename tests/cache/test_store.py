"""The on-disk trace log: round-trips, corruption, invalidation."""

from __future__ import annotations

import json
import os

import pytest

from repro.arch.arm import ArmModel
from repro.cache import (
    CACHE_FORMAT_VERSION,
    DiskCache,
    open_cache,
    resolve_cache,
    trace_key,
)
from repro.cache import store
from repro.isla import Assumptions, trace_for_opcode
from repro.itl.events import Reg
from repro.itl.parser import parse_trace
from repro.itl.printer import trace_to_sexpr

from ._log import record_span

ARM = ArmModel()
ADD_X1_X2_X3 = 0x8B030041


def _assumptions() -> Assumptions:
    out = Assumptions()
    for name, value in (("PSTATE.EL", 2), ("PSTATE.SP", 1), ("SCTLR_EL2", 0)):
        out.pin(name, value, ARM.regfile.width_of(Reg.parse(name)))
    return out


def _fresh_trace():
    return trace_for_opcode(ARM, ADD_X1_X2_X3, _assumptions())


def _edit_record(root, key: str, edit) -> None:
    """Replace the bytes of ``key``'s record in the log with ``edit(record)``."""
    log, start, end = record_span(root, key)
    data = log.read_bytes()
    log.write_bytes(data[:start] + edit(data[start:end]) + data[end:])


class TestTraceStore:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        loaded = cache.load_trace(key)
        assert loaded is not None
        trace, meta = loaded
        assert trace_to_sexpr(trace) == trace_to_sexpr(result.trace)
        assert meta["paths"] == result.paths
        assert cache.stats["trace_writes"] == 1
        assert cache.stats["trace_hits"] == 1

    def test_executor_integration(self, tmp_path):
        """``trace_for_opcode`` fills the cache on miss and serves from it."""
        cache = DiskCache(tmp_path)
        cold = trace_for_opcode(ARM, ADD_X1_X2_X3, _assumptions(), cache=cache)
        assert not cold.cached
        warm = trace_for_opcode(ARM, ADD_X1_X2_X3, _assumptions(), cache=cache)
        assert warm.cached
        assert trace_to_sexpr(warm.trace) == trace_to_sexpr(cold.trace)
        # The stored metrics describe the original run, not the hit.
        assert warm.paths == cold.paths

    def test_missing_key_is_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.load_trace("0" * 64) is None
        assert cache.stats["trace_misses"] == 1
        assert cache.stats["corrupt_entries"] == 0

    @pytest.mark.parametrize("mutation", ["truncate", "append", "garbage"])
    def test_corrupt_entry_is_miss(self, tmp_path, mutation):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        _edit_record(tmp_path, key, {
            "truncate": lambda record: record[: len(record) // 2],
            "append": lambda record: record[:-1] + b"trailing junk\n",
            "garbage": lambda record: b"not a cache entry at all",
        }[mutation])
        # Read back as another process would: the writer holds its trace.
        reader = DiskCache(tmp_path)
        assert reader.load_trace(key) is None
        assert reader.stats["corrupt_entries"] == 1
        # A corrupt entry must be recoverable by simply re-storing.
        cache.store_trace(key, result.trace, {"paths": result.paths})
        assert reader.load_trace(key) is not None

    def test_versioned_layout(self, tmp_path):
        """Entries live under v<FORMAT>; other versions are unreachable."""
        cache = DiskCache(tmp_path)
        assert (tmp_path / f"v{CACHE_FORMAT_VERSION}" / "traces.log").is_file()
        # An entry from an older format is simply never seen.
        stale = tmp_path / "v2" / "traces" / "ab"
        stale.mkdir(parents=True)
        (stale / ("ab" * 32 + ".itl")).write_text("{}\nstale")
        assert cache.load_trace("ab" * 32) is None

    def test_twenty_traces_make_no_file_but_the_logs(self, tmp_path):
        """Every trace is a record in one log: storing 20 leaves that log
        alone under ``v<FORMAT>``, with no directory and no temp file."""
        cache = DiskCache(tmp_path)
        for rd in range(20):  # add x<rd>, x2, x3
            opcode = (ADD_X1_X2_X3 & ~0x1F) | rd
            result = trace_for_opcode(ARM, opcode, _assumptions())
            key = trace_key(ARM, opcode, _assumptions())
            cache.store_trace(key, result.trace, {"paths": result.paths})
        base = tmp_path / f"v{CACHE_FORMAT_VERSION}"
        assert [str(p.relative_to(base)) for p in base.rglob("*")] == ["traces.log"]
        assert cache.stats["trace_writes"] == 20
        fresh = DiskCache(tmp_path)
        assert len(fresh._index) == 20

    def test_a_handle_sees_later_stores(self, tmp_path):
        """A handle opened before another handle's stores still loads
        them: a miss indexes what was appended since."""
        reader = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        assert reader.load_trace(key) is None
        DiskCache(tmp_path).store_trace(key, result.trace, {"paths": result.paths})
        trace, meta = reader.load_trace(key)
        assert trace_to_sexpr(trace) == trace_to_sexpr(result.trace)
        assert meta["paths"] == result.paths
        assert reader.stats["trace_misses"] == 1
        assert reader.stats["trace_mem_hits"] == 0

    def test_a_record_rewritten_to_another_key_serves_neither(self, tmp_path):
        """The digest covers the key: a record whose header names another
        valid key, at the same length, is a corrupt miss under that key
        and a plain miss under its own."""
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        other = trace_key(ARM, ADD_X1_X2_X3, _assumptions(), name_prefix="o")
        assert len(other) == len(key) != other
        DiskCache(tmp_path).store_trace(key, result.trace, {"paths": result.paths})
        _edit_record(
            tmp_path, key, lambda record: record.replace(key.encode(), other.encode())
        )
        reader = DiskCache(tmp_path)
        assert reader.load_trace(other) is None
        assert reader.load_trace(key) is None
        assert reader.stats["corrupt_entries"] == 1
        assert reader.stats["trace_misses"] == 2


def _flip_digit(text: str, i: int) -> str:
    """``text`` with the (hex) digit at ``i`` changed: the same length,
    and still a well-formed s-expression or JSON."""
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1 :]


class TestDigest:
    """Each entry carries a blake2b-128 digest of its header fields and
    body: any same-length damage is a counted miss, even when the damaged
    body still parses (and would pass the length check)."""

    # Trace entries are the one entry kind; the tests keep their
    # ``[trace]`` parameter so their ids stay stable.
    def _stored(self, tmp_path, kind):
        assert kind == "trace"
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        # Read back through a second handle (another process): the writer
        # serves the trace it holds, whatever happens to its record.
        reader = DiskCache(tmp_path)

        def edit(mutate) -> None:
            _edit_record(
                tmp_path, key, lambda record: mutate(record.decode()).encode()
            )

        return reader, key, edit, lambda: reader.load_trace(key)

    @pytest.mark.parametrize("kind", ["trace"])
    def test_same_length_body_mutation_is_a_corrupt_miss(self, tmp_path, kind):
        cache, _, edit, load = self._stored(tmp_path, kind)

        def mutate(text: str) -> str:
            header, _, body = text.partition("\n")
            mutated = _flip_digit(body, body.index("#x") + 2)  # a bitvector literal
            parse_trace(mutated)  # the damage is invisible to the parser
            return f"{header}\n{mutated}"

        edit(mutate)
        assert load() is None
        assert cache.stats["corrupt_entries"] == 1
        assert cache.stats["wellformed_rejects"] == 0  # stopped at the digest

    @pytest.mark.parametrize("kind", ["trace"])
    def test_same_length_header_mutation_is_a_corrupt_miss(self, tmp_path, kind):
        cache, _, edit, load = self._stored(tmp_path, kind)

        def mutate(text: str) -> str:
            mutated = _flip_digit(text, text.index('"paths":') + len('"paths":'))
            json.loads(mutated.partition("\n")[0])  # still a JSON header
            return mutated

        edit(mutate)
        assert load() is None
        assert cache.stats["corrupt_entries"] == 1

    def test_header_carries_digest_and_length(self, tmp_path):
        _, key, _, _ = self._stored(tmp_path, "trace")
        log, start, end = record_span(tmp_path, key)
        text = log.read_bytes()[start:end].decode()
        meta = json.loads(text.partition("\n")[0])
        assert meta["end"] == len(text)
        assert meta["key"] == key
        assert len(meta["digest"]) == 32  # 128 bits, hex
        assert meta["digest"] == store._entry_digest(meta, text.partition("\n")[2])


class TestHandles:
    """One handle per process and root: the trace log is indexed once."""

    def test_one_handle_per_absolute_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = open_cache("c")
        assert open_cache(str(tmp_path / "c")) is cache
        assert open_cache(tmp_path / "c") is cache
        assert open_cache("d") is not cache

    def test_log_is_loaded_once(self, tmp_path, monkeypatch):
        loads = []
        real = DiskCache._index_opened_log
        monkeypatch.setattr(
            DiskCache,
            "_index_opened_log",
            lambda self, data: (loads.append(1), real(self, data))[1],
        )
        for _ in range(3):
            open_cache(tmp_path)
        assert len(loads) == 1

    def test_resolve_cache_precedence(self, tmp_path, monkeypatch):
        env, flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env))
        assert resolve_cache(None) is open_cache(env)
        assert resolve_cache(str(flag)) is open_cache(flag)
        assert resolve_cache(str(flag), no_cache=True) is None


def _skewed_trace():
    """A trace a buggy writer could seal: it parses, but declares its one
    variable twice."""
    from repro import itl
    from repro.smt import builder as B
    from repro.smt.sorts import bv_sort

    x = B.bv_var("x", 64)
    return itl.Trace.lin(
        itl.DeclareConst(x, bv_sort(64)), itl.DeclareConst(x, bv_sort(64))
    )


class TestHeldTraces:
    """A handle holds the traces it stored or loaded and serves them
    without reading the log; other handles (other processes) still
    digest, parse and check every record they read."""

    def test_hit_returns_the_stored_object(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        trace, meta = cache.load_trace(key)
        assert trace is result.trace
        # The meta is exactly what a disk read parses back.
        assert meta == DiskCache(tmp_path).load_trace(key)[1]
        assert meta["paths"] == result.paths
        assert cache.stats["trace_hits"] == cache.stats["trace_mem_hits"] == 1

    def test_a_disk_hit_is_held(self, tmp_path):
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        DiskCache(tmp_path).store_trace(key, result.trace, {"paths": 1})
        reader = DiskCache(tmp_path)
        first = reader.load_trace(key)
        assert reader.stats["trace_mem_hits"] == 0
        record_span(tmp_path, key)[0].write_bytes(b"")
        assert reader.load_trace(key) is first
        assert reader.stats["trace_hits"] == 2
        assert reader.stats["trace_mem_hits"] == 1

    def test_damaged_file_writer_serves_reader_evicts(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        # A version-skewed writer appends a sealed, ill-formed record,
        # which supersedes the first.
        DiskCache(tmp_path).store_trace(key, _skewed_trace(), {"paths": 1})
        assert cache.load_trace(key)[0] is result.trace
        reader = DiskCache(tmp_path)
        assert reader.load_trace(key) is None
        assert reader.stats["corrupt_entries"] == 1
        assert reader.stats["wellformed_rejects"] == 1
        assert reader.stats["trace_misses"] == 1
        # Evicted on sight: the next load is a plain miss, not a re-read.
        assert reader.load_trace(key) is None
        assert reader.stats["corrupt_entries"] == 1
        assert reader.stats["trace_misses"] == 2
        assert cache.load_trace(key)[0] is result.trace

    def test_wellformed_reject_is_not_held(self, tmp_path):
        key = "ab" * 32
        reader = DiskCache(tmp_path)
        for attempt in (1, 2):
            DiskCache(tmp_path).store_trace(key, _skewed_trace(), {"paths": 1})
            assert reader.load_trace(key) is None
            assert reader.stats["wellformed_rejects"] == attempt
            assert reader.stats["trace_misses"] == attempt
        assert reader.stats["trace_hits"] == 0


class TestDurability:
    """The durability policy.  Records are appended whole under a lock but
    never fsynced: a power cut can cost warm entries, and the length and
    digest in each header turn any damage into a counted miss.  The log's
    torn tail is *repaired on disk* at open (truncated and fsynced), not
    merely skipped over forever."""

    def _records(self, tmp_path, *prefixes):
        """The trace log holding one record per naming prefix, and their
        keys and bytes (sealed by a scratch handle under ``tmp_path``)."""
        result = _fresh_trace()
        keys = [
            trace_key(ARM, ADD_X1_X2_X3, _assumptions(), name_prefix=p)
            for p in prefixes
        ]
        scratch = tmp_path / "scratch"
        writer = DiskCache(scratch)
        for key in keys:
            writer.store_trace(key, result.trace, {"paths": result.paths})
        spans = [record_span(scratch, key) for key in keys]
        data = spans[0][0].read_bytes()
        path = tmp_path / f"v{CACHE_FORMAT_VERSION}" / "traces.log"
        path.parent.mkdir(parents=True)
        return path, keys, [data[start:end] for _, start, end in spans]

    def test_torn_tail_is_truncated_off_the_file(self, tmp_path):
        path, (key,), (good,) = self._records(tmp_path, "a")
        path.write_bytes(good + b'{"key": "bbbb')  # no terminating newline
        cache = DiskCache(tmp_path)
        assert cache.load_trace(key) is not None
        assert cache.stats["corrupt_entries"] == 1
        # The file itself was repaired under the appenders' lock.
        assert path.read_bytes() == good

    def test_garbage_terminated_tail_is_also_truncated(self, tmp_path):
        path, (key,), (good,) = self._records(tmp_path, "d")
        path.write_bytes(good + b"\xff\xfe utter junk\n")
        cache = DiskCache(tmp_path)
        assert cache.load_trace(key) is not None
        assert path.read_bytes() == good

    def test_mid_file_garbage_is_skipped_but_kept(self, tmp_path):
        """Only a *trailing* run of bad bytes is cut: a valid record after
        mid-file garbage proves the suffix is live, so nothing is lost."""
        path, keys, (first, second) = self._records(tmp_path, "e", "f")
        content = first + b"garbage line\n" + second
        path.write_bytes(content)
        cache = DiskCache(tmp_path)
        assert all(cache.load_trace(key) is not None for key in keys)
        assert cache.stats["corrupt_entries"] == 1
        assert path.read_bytes() == content

    def test_appends_after_repair_reload_cleanly(self, tmp_path):
        path, (key, other), (good, record) = self._records(tmp_path, "a", "b")
        path.write_bytes(good + record[: len(record) // 2])
        DiskCache(tmp_path).store_trace(other, _fresh_trace().trace, {"paths": 1})
        reloaded = DiskCache(tmp_path)
        assert reloaded.load_trace(key) is not None
        assert reloaded.load_trace(other) is not None
        assert reloaded.stats["corrupt_entries"] == 0

    def test_store_trace_leaves_no_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        log, start, end = record_span(tmp_path, key)
        # The append left exactly the record, no droppings.
        assert (start, end) == (0, log.stat().st_size)
        assert [p.name for p in log.parent.iterdir()] == [log.name]

    def test_torn_trace_record_is_truncated(self, tmp_path):
        """A killed appender's partial final record is cut off the log on
        open, and the next append reloads cleanly."""
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        DiskCache(tmp_path).store_trace(key, result.trace, {"paths": result.paths})
        log, _, end = record_span(tmp_path, key)
        other = trace_key(ARM, ADD_X1_X2_X3, _assumptions(), name_prefix="o")
        scratch = tmp_path / "scratch"
        DiskCache(scratch).store_trace(other, result.trace, {"paths": 1})
        record = record_span(scratch, other)[0].read_bytes()
        with log.open("ab") as handle:
            handle.write(record[: len(record) // 2])  # killed mid-append
        cache = DiskCache(tmp_path)
        assert cache.stats["corrupt_entries"] == 1
        assert log.stat().st_size == end
        assert cache.load_trace(other) is None
        cache.store_trace(other, result.trace, {"paths": 1})
        reloaded = DiskCache(tmp_path)
        assert reloaded.stats["corrupt_entries"] == 0
        assert reloaded.load_trace(key) is not None
        assert reloaded.load_trace(other) is not None

    def test_store_trace_makes_no_fsync(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        assert cache.stats["trace_writes"] == 1
        assert calls == []

    def test_tail_repair_still_fsyncs(self, tmp_path, monkeypatch):
        path, _, (good,) = self._records(tmp_path, "a")
        path.write_bytes(good + b'{"k"')
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        DiskCache(tmp_path)
        assert path.read_bytes() == good
        assert len(calls) == 1
