"""The on-disk trace/SMT stores: round-trips, corruption, invalidation."""

from __future__ import annotations

import json

import pytest

from repro.arch.arm import ArmModel
from repro.cache import CACHE_FORMAT_VERSION, DiskCache, trace_key
from repro.isla import Assumptions, trace_for_opcode
from repro.itl.events import Reg
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
    """ISSUE 6 satellite: the store behaves like a WAL — atomic renames
    are fsynced through the directory, and a torn verdict-log tail is
    *repaired on disk* at open, not merely skipped over forever."""

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
        # The durable-rename dance left exactly the entry, no droppings.
        assert [p.name for p in entry.parent.iterdir()] == [entry.name]
