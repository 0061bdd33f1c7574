"""The on-disk trace/SMT stores: round-trips, corruption, invalidation."""

from __future__ import annotations

import json
import os

import pytest

from repro.arch.arm import ArmModel
from repro.cache import (
    CACHE_FORMAT_VERSION,
    DiskCache,
    drop_cache,
    open_cache,
    resolve_cache,
    trace_key,
)
from repro.cache import store
from repro.isla import Assumptions, trace_for_opcode
from repro.itl.events import Reg
from repro.itl.parser import parse_trace
from repro.itl.printer import trace_to_sexpr

ARM = ArmModel()
ADD_X1_X2_X3 = 0x8B030041


def _assumptions() -> Assumptions:
    out = Assumptions()
    for name, value in (("PSTATE.EL", 2), ("PSTATE.SP", 1), ("SCTLR_EL2", 0)):
        out.pin(name, value, ARM.regfile.width_of(Reg.parse(name)))
    return out


def _fresh_trace():
    return trace_for_opcode(ARM, ADD_X1_X2_X3, _assumptions())


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
        assert cache.stats.trace_writes == 1
        assert cache.stats.trace_hits == 1

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
        assert cache.stats.trace_misses == 1
        assert cache.stats.corrupt_entries == 0

    @pytest.mark.parametrize("mutation", ["truncate", "append", "garbage"])
    def test_corrupt_entry_is_miss(self, tmp_path, mutation):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        path = cache._trace_path(key)
        text = path.read_text()
        if mutation == "truncate":
            path.write_text(text[: len(text) // 2])
        elif mutation == "append":
            path.write_text(text + "trailing junk")
        else:
            path.write_text("not a cache entry at all")
        assert cache.load_trace(key) is None
        assert cache.stats.corrupt_entries == 1
        # A corrupt entry must be recoverable by simply re-storing.
        cache.store_trace(key, result.trace, {"paths": result.paths})
        assert cache.load_trace(key) is not None

    def test_versioned_layout(self, tmp_path):
        """Entries live under v<FORMAT>; other versions are unreachable."""
        cache = DiskCache(tmp_path)
        assert (tmp_path / f"v{CACHE_FORMAT_VERSION}" / "traces").is_dir()
        # An entry from a hypothetical older format is simply never seen.
        stale = tmp_path / "v0" / "traces" / "ab"
        stale.mkdir(parents=True)
        (stale / ("ab" * 32 + ".itl")).write_text("{}\nstale")
        assert cache.load_trace("ab" * 32) is None


def _flip_digit(text: str, i: int) -> str:
    """``text`` with the (hex) digit at ``i`` changed: the same length,
    and still a well-formed s-expression or JSON."""
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1 :]


class TestDigest:
    """Each entry carries a blake2b-128 digest of its header fields and
    body: any same-length damage is a counted miss, even when the damaged
    body still parses (and would pass the length check)."""

    def _stored(self, tmp_path, kind):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        if kind == "trace":
            cache.store_trace(key, result.trace, {"paths": result.paths})
            return cache, cache._trace_path(key), lambda: cache.load_trace(key)
        cache.store_family(key, result.trace, {"paths": result.paths})
        return cache, cache._family_path(key), lambda: cache.load_family(key)

    @pytest.mark.parametrize("kind", ["trace", "family"])
    def test_same_length_body_mutation_is_a_corrupt_miss(self, tmp_path, kind):
        cache, path, load = self._stored(tmp_path, kind)
        text = path.read_text()
        header, _, body = text.partition("\n")
        mutated = _flip_digit(body, body.index("#x") + 2)  # a bitvector literal
        parse_trace(mutated)  # the damage is invisible to the parser
        path.write_text(f"{header}\n{mutated}")
        assert load() is None
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.wellformed_rejects == 0  # stopped at the digest

    @pytest.mark.parametrize("kind", ["trace", "family"])
    def test_same_length_header_mutation_is_a_corrupt_miss(self, tmp_path, kind):
        cache, path, load = self._stored(tmp_path, kind)
        text = path.read_text()
        mutated = _flip_digit(text, text.index('"paths":') + len('"paths":'))
        json.loads(mutated.partition("\n")[0])  # still a JSON header
        path.write_text(mutated)
        assert load() is None
        assert cache.stats.corrupt_entries == 1

    def test_header_carries_digest_and_length(self, tmp_path):
        _, path, _ = self._stored(tmp_path, "trace")
        text = path.read_text()
        meta = json.loads(text.partition("\n")[0])
        assert meta["end"] == len(text)
        assert len(meta["digest"]) == 32  # 128 bits, hex
        assert meta["digest"] == store._entry_digest(meta, text.partition("\n")[2])


class TestHandles:
    """One handle per process and root: the verdict log is parsed once."""

    def test_one_handle_per_absolute_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = open_cache("c")
        assert open_cache(str(tmp_path / "c")) is cache
        assert open_cache(tmp_path / "c") is cache
        assert open_cache("d") is not cache

    def test_log_is_loaded_once(self, tmp_path, monkeypatch):
        loads = []
        real = DiskCache._load_smt
        monkeypatch.setattr(
            DiskCache, "_load_smt", lambda self: (loads.append(1), real(self))
        )
        for _ in range(3):
            open_cache(tmp_path)
        assert len(loads) == 1

    def test_drop_cache_flushes_and_forgets(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.smt_record("a" * 64, "sat")
        drop_cache(tmp_path)
        assert DiskCache(tmp_path).smt_lookup("a" * 64) == "sat"
        assert open_cache(tmp_path) is not cache
        drop_cache(tmp_path / "never-opened")  # a no-op

    def test_resolve_cache_precedence(self, tmp_path, monkeypatch):
        env, flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env))
        assert resolve_cache(None) is open_cache(env)
        assert resolve_cache(str(flag)) is open_cache(flag)
        assert resolve_cache(str(flag), no_cache=True) is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_opens_its_own_handle(self, tmp_path):
        open_cache(tmp_path)
        pid = os.fork()
        if pid == 0:  # child: the parent's handles are not inherited
            os._exit(0 if not store._HANDLES else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestSmtStore:
    def test_record_lookup_persist(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "k" * 64
        assert cache.smt_lookup(key) is None
        cache.smt_record(key, "unsat")
        assert cache.smt_lookup(key) == "unsat"
        cache.flush()
        reloaded = DiskCache(tmp_path)
        assert reloaded.stats.smt_loaded == 1
        assert reloaded.smt_lookup(key) == "unsat"

    def test_unknown_never_persists(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(ValueError):
            cache.smt_record("k" * 64, "unknown")

    def test_duplicate_records_are_idempotent(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.smt_record("k" * 64, "sat")
        cache.smt_record("k" * 64, "sat")
        cache.flush()
        lines = (
            (tmp_path / f"v{CACHE_FORMAT_VERSION}" / "smt" / "verdicts.jsonl")
            .read_text()
            .splitlines()
        )
        assert len(lines) == 1

    def test_torn_tail_line_skipped(self, tmp_path):
        path = tmp_path / f"v{CACHE_FORMAT_VERSION}" / "smt" / "verdicts.jsonl"
        path.parent.mkdir(parents=True)
        good = json.dumps({"k": "a" * 64, "r": "unsat"})
        path.write_text(good + "\n" + '{"k": "bbbb')  # torn final append
        cache = DiskCache(tmp_path)
        assert cache.smt_lookup("a" * 64) == "unsat"
        assert cache.stats.corrupt_entries == 1

    def test_only_sat_unsat_verdicts_load(self, tmp_path):
        """A record ``smt_record`` could never have written is corrupt: it
        is counted and skipped, never served as a verdict."""
        path = tmp_path / f"v{CACHE_FORMAT_VERSION}" / "smt" / "verdicts.jsonl"
        path.parent.mkdir(parents=True)
        records = [
            {"k": "abc", "r": "garbage"},
            {"k": "def", "r": 5},
            {"k": 7, "r": "sat"},
            {"k": "ghi", "r": "unsat"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        cache = DiskCache(tmp_path)
        assert cache.smt_lookup("abc") is None
        assert cache.smt_lookup("def") is None
        assert cache.smt_lookup("ghi") == "unsat"
        assert cache.stats.corrupt_entries == 3
        assert cache.stats.smt_loaded == 1

    def test_close_flushes(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            cache.smt_record("c" * 64, "sat")
        assert DiskCache(tmp_path).smt_lookup("c" * 64) == "sat"


class TestDurability:
    """The durability policy.  Entries are written atomically (temp file +
    rename) but never fsynced: a power cut can cost warm entries, and the
    length and digest in each header turn any damage into a counted miss.
    The verdict log's torn tail is *repaired on disk* at open (truncated
    and fsynced), not merely skipped over forever."""

    def _verdicts_path(self, tmp_path):
        return tmp_path / f"v{CACHE_FORMAT_VERSION}" / "smt" / "verdicts.jsonl"

    def test_torn_tail_is_truncated_off_the_file(self, tmp_path):
        path = self._verdicts_path(tmp_path)
        path.parent.mkdir(parents=True)
        good = json.dumps({"k": "a" * 64, "r": "unsat"}) + "\n"
        path.write_text(good + '{"k": "bbbb')  # no terminating newline
        cache = DiskCache(tmp_path)
        assert cache.smt_lookup("a" * 64) == "unsat"
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.smt_truncated_bytes == len('{"k": "bbbb')
        # The file itself was repaired under the appenders' lock.
        assert path.read_bytes() == good.encode()

    def test_garbage_terminated_tail_is_also_truncated(self, tmp_path):
        path = self._verdicts_path(tmp_path)
        path.parent.mkdir(parents=True)
        good = json.dumps({"k": "d" * 64, "r": "sat"}) + "\n"
        path.write_text(good + "\xff\xfe utter junk\n")
        cache = DiskCache(tmp_path)
        assert cache.smt_lookup("d" * 64) == "sat"
        assert cache.stats.smt_truncated_bytes > 0
        assert path.read_text() == good

    def test_mid_file_garbage_is_skipped_but_kept(self, tmp_path):
        """Only a *trailing* run of bad bytes is cut: a valid record after
        mid-file garbage proves the suffix is live, so nothing is lost."""
        path = self._verdicts_path(tmp_path)
        path.parent.mkdir(parents=True)
        first = json.dumps({"k": "e" * 64, "r": "unsat"}) + "\n"
        second = json.dumps({"k": "f" * 64, "r": "sat"}) + "\n"
        content = first + "garbage line\n" + second
        path.write_text(content)
        cache = DiskCache(tmp_path)
        assert cache.smt_lookup("e" * 64) == "unsat"
        assert cache.smt_lookup("f" * 64) == "sat"
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.smt_truncated_bytes == 0
        assert path.read_text() == content

    def test_appends_after_repair_reload_cleanly(self, tmp_path):
        path = self._verdicts_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"k": "a" * 64, "r": "unsat"}) + "\n" + '{"k": "torn'
        )
        with DiskCache(tmp_path) as cache:
            cache.smt_record("b" * 64, "sat")
        reloaded = DiskCache(tmp_path)
        assert reloaded.smt_lookup("a" * 64) == "unsat"
        assert reloaded.smt_lookup("b" * 64) == "sat"
        assert reloaded.stats.corrupt_entries == 0

    def test_store_trace_leaves_no_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        entry = cache._trace_path(key)
        assert entry.exists()
        # The atomic rename left exactly the entry, no droppings.
        assert [p.name for p in entry.parent.iterdir()] == [entry.name]

    def test_store_trace_makes_no_fsync(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        cache = DiskCache(tmp_path)
        result = _fresh_trace()
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        cache.store_trace(key, result.trace, {"paths": result.paths})
        cache.store_family(key, result.trace, {"paths": result.paths})
        assert cache.stats.trace_writes == cache.stats.family_writes == 1
        assert calls == []

    def test_tail_repair_still_fsyncs(self, tmp_path, monkeypatch):
        path = self._verdicts_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"k": "a" * 64, "r": "sat"}) + "\n" + '{"k"')
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        cache = DiskCache(tmp_path)
        assert cache.stats.smt_truncated_bytes == len('{"k"')
        assert len(calls) == 1
