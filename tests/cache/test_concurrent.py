"""Concurrent-writer safety of the on-disk store.

The daemon's job threads, its resident worker processes, and a CLI run may
all share one cache directory.  The contract: concurrent writers can never
corrupt an entry — a reader sees either a complete record or (transiently)
none.  Lost writes are allowed (warm-start loss); torn or interleaved
records are not.
"""

from __future__ import annotations

import json
import threading

from repro.arch.arm import ArmModel
from repro.cache import DiskCache, trace_key
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


def _hammer(threads: int, fn) -> None:
    """Run ``fn(worker_index)`` from N threads, re-raising any failure."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def run(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert not errors, errors


class TestConcurrentTraceStore:
    def test_same_key_from_many_threads(self, tmp_path):
        """N threads storing the same entry: the survivor must be intact."""
        result = trace_for_opcode(ARM, ADD_X1_X2_X3, _assumptions())
        key = trace_key(ARM, ADD_X1_X2_X3, _assumptions())
        handles = [DiskCache(tmp_path) for _ in range(8)]

        def store(i: int) -> None:
            for _ in range(10):
                handles[i].store_trace(key, result.trace, {"paths": result.paths})

        _hammer(8, store)
        fresh = DiskCache(tmp_path)
        loaded = fresh.load_trace(key)
        assert loaded is not None
        trace, _meta = loaded
        assert trace_to_sexpr(trace) == trace_to_sexpr(result.trace)
        assert fresh.stats["corrupt_entries"] == 0
        # Appends leave no temp droppings behind.
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_shared_handle_from_many_threads(self, tmp_path):
        """One handle shared by job threads (the daemon's shape)."""
        result = trace_for_opcode(ARM, ADD_X1_X2_X3, _assumptions())
        cache = DiskCache(tmp_path)

        def mixed(i: int) -> None:
            key = trace_key(ARM, ADD_X1_X2_X3, _assumptions(), name_prefix=f"t{i}")
            for _ in range(5):
                cache.store_trace(key, result.trace, {"paths": result.paths})
                assert cache.load_trace(key) is not None

        _hammer(8, mixed)
        fresh = DiskCache(tmp_path)
        for i in range(8):
            key = trace_key(ARM, ADD_X1_X2_X3, _assumptions(), name_prefix=f"t{i}")
            assert fresh.load_trace(key) is not None
        assert fresh.stats["corrupt_entries"] == 0


class TestConcurrentJsonlStores:
    def test_append_exact_partial_write_loop(self, tmp_path, monkeypatch):
        """A short ``os.write`` must not tear a record."""
        import os as _os

        from repro.cache import store as store_mod

        real_write = _os.write
        calls = {"n": 0}

        def short_write(fd, data):
            calls["n"] += 1
            data = bytes(data)
            if len(data) > 3:
                return real_write(fd, data[: len(data) // 2])
            return real_write(fd, data)

        monkeypatch.setattr(store_mod.os, "write", short_write)
        path = tmp_path / "log.jsonl"
        payload = (json.dumps({"k": "x" * 40, "r": "sat"}) + "\n").encode()
        assert store_mod._append_exact(path, payload)
        monkeypatch.undo()
        assert path.read_bytes() == payload
        assert calls["n"] > 1  # the loop actually had to continue

    def test_append_exact_cuts_a_failed_write(self, tmp_path, monkeypatch):
        """A write that fails part-way (a full disk) is cut back off, so
        the next record does not land after half of this one."""
        import os as _os

        from repro.cache import store as store_mod

        path = tmp_path / "log.jsonl"
        first = (json.dumps({"k": "a" * 40, "r": "sat"}) + "\n").encode()
        assert store_mod._append_exact(path, first) == len(first)
        real_write = _os.write
        calls = {"n": 0}

        def write_then_fail(fd, data):
            calls["n"] += 1
            if calls["n"] > 1:
                raise OSError(28, "No space left on device")
            return real_write(fd, bytes(data)[:5])

        monkeypatch.setattr(store_mod.os, "write", write_then_fail)
        assert store_mod._append_exact(path, b'{"k": "torn", "r": "sat"}\n') is None
        monkeypatch.undo()
        assert path.read_bytes() == first
