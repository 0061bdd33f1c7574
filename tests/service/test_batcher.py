"""The cross-job dedup/batching layer: keys, single-flight, identity."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import obs
from repro.arch.arm import ArmModel, encode as A
from repro.frontend import ProgramImage, generate_instruction_map
from repro.isla import Assumptions
from repro.itl.events import Reg
from repro.service import batcher as batcher_module
from repro.service.batcher import TraceBatcher
from repro.service.telemetry import Telemetry


@pytest.fixture
def dispatched(monkeypatch):
    """Record the opcode of every Isla run the batcher dispatches; the runs
    themselves are real."""
    calls = []
    run = batcher_module.trace_for_opcode

    def counting(model, opcode, assumptions, **kwargs):
        calls.append(opcode)
        return run(model, opcode, assumptions, **kwargs)

    monkeypatch.setattr(batcher_module, "trace_for_opcode", counting)
    return calls


def _failing(monkeypatch, failures: int | None = None) -> list:
    """Make the first ``failures`` dispatched runs raise (all of them with
    ``None``); returns the list of every dispatched opcode."""
    calls = []
    run = batcher_module.trace_for_opcode

    def flaky(model, opcode, assumptions, **kwargs):
        calls.append(opcode)
        if failures is None or len(calls) <= failures:
            raise RuntimeError("boom")
        return run(model, opcode, assumptions, **kwargs)

    monkeypatch.setattr(batcher_module, "trace_for_opcode", flaky)
    return calls


def _image(*words, at: int = 0x1000) -> ProgramImage:
    return ProgramImage().place(at, list(words))


class TestKeys:
    def test_exact_key_ignores_address(self, dispatched):
        model = ArmModel()
        with TraceBatcher() as batcher:
            first = batcher.generate(model, _image(A.nop()), Assumptions())
            second = batcher.generate(
                model, _image(A.nop(), at=0x2000), Assumptions()
            )
        assert len(dispatched) == 1
        assert second.traces[0x2000] == first.traces[0x1000]

    def test_exact_key_covers_inputs(self, dispatched):
        model = ArmModel()
        pinned = Assumptions()
        pinned.pin("PSTATE.EL", 2, model.regfile.width_of(Reg.parse("PSTATE.EL")))
        with TraceBatcher() as batcher:
            batcher.generate(model, _image(A.nop()), Assumptions())
            batcher.generate(model, _image(A.ret()), Assumptions())
            batcher.generate(model, _image(A.nop()), pinned)
        assert dispatched == [A.nop(), A.ret(), A.nop()]


    def test_disk_lookup_reuses_the_request_key(self, monkeypatch, tmp_path):
        """With a disk cache, each request's trace key is computed once:
        the batcher's key is the one the leader's disk lookup uses."""
        from repro.cache import DiskCache, keys

        computed = []
        key_of = keys.trace_key

        def counting(model, opcode, *args, **kwargs):
            computed.append(opcode)
            return key_of(model, opcode, *args, **kwargs)

        monkeypatch.setattr(keys, "trace_key", counting)
        monkeypatch.setattr(batcher_module, "trace_key", counting)
        words = [A.nop(), A.ret(), A.add_imm(0, 0, 5)]
        cache = DiskCache(tmp_path)
        with TraceBatcher(cache=cache) as batcher:
            result = batcher.generate(ArmModel(), _image(*words), Assumptions())
        assert len(result.traces) == 3
        assert computed == words
        assert cache.stats["trace_misses"] == 3  # the lookups did happen


class TestGenerate:
    def test_results_identical_to_serial_frontend(self):
        model = ArmModel()
        image = _image(A.add_imm(0, 0, 5), A.ret())
        serial = generate_instruction_map(model, image, Assumptions())
        with TraceBatcher() as batcher:
            batched = batcher.generate(model, image, Assumptions())
        assert sorted(batched.traces) == sorted(serial.traces)
        for addr in serial.traces:
            assert batched.traces[addr] == serial.traces[addr]

    def test_identical_opcodes_deduplicate(self, dispatched):
        model = ArmModel()
        telemetry = Telemetry()
        with TraceBatcher(telemetry=telemetry) as batcher:
            result = batcher.generate(model, _image(A.nop(), A.nop()), Assumptions())
        assert sorted(result.traces) == [0x1000, 0x1004]
        assert result.traces[0x1000] == result.traces[0x1004]
        counters = telemetry.snapshot()["counters"]
        assert counters["trace_requests"] == 2
        assert counters["dedup_hits"] == 1
        assert counters["batches"] >= 1
        assert len(dispatched) == 1  # one leader, one follower

    def test_single_flight_across_threads(self, dispatched):
        model = ArmModel()
        telemetry = Telemetry()
        barrier = threading.Barrier(2)
        results = []

        def submit():
            barrier.wait()
            results.append(batcher.generate(model, _image(A.nop()), Assumptions()))

        with TraceBatcher(telemetry=telemetry) as batcher:
            threads = [threading.Thread(target=submit) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert len(results) == 2
        assert results[0].traces[0x1000] == results[1].traces[0x1000]
        assert len(dispatched) == 1
        assert telemetry.snapshot()["counters"]["dedup_hits"] == 1

    def test_worker_failure_propagates_to_waiters(self, monkeypatch):
        _failing(monkeypatch)
        with TraceBatcher() as batcher:
            with pytest.raises(RuntimeError, match="boom"):
                batcher.generate(ArmModel(), _image(A.nop()), Assumptions())

    def test_close_joins_dispatcher(self):
        batcher = TraceBatcher()
        batcher.generate(ArmModel(), _image(A.nop()), Assumptions())
        batcher.close()
        assert batcher._dispatcher is None or not batcher._dispatcher.is_alive()


class TestKeptTraces:
    def test_kept_key_is_a_hit_that_does_not_dispatch(self, monkeypatch):
        model = ArmModel()
        image = _image(A.add_imm(0, 0, 5))
        telemetry = Telemetry()
        calls = []
        run = batcher_module.trace_for_opcode

        def marking(*args, **kwargs):
            # Counts in the leader's run scope, so the test can see where
            # the leader's counts land.
            calls.append(args)
            obs.count("test.leader_runs")
            return run(*args, **kwargs)

        monkeypatch.setattr(batcher_module, "trace_for_opcode", marking)
        with TraceBatcher(telemetry=telemetry) as batcher:
            with obs.scope() as first_run:
                first = batcher.generate(model, image, Assumptions())
            with obs.scope() as second_run:
                second = batcher.generate(model, image, Assumptions())
        assert len(calls) == 1
        counters = telemetry.snapshot()["counters"]
        assert counters["trace_requests"] == 2
        assert counters["dedup_hits"] == 1
        assert second.traces[0x1000] == first.traces[0x1000]
        assert first.results[0x1000].cached is False
        assert second.results[0x1000].cached is True
        # The leader's counts belong to the job that ran it.
        assert first_run.snapshot("test.") == {"leader_runs": 1}
        assert second_run.snapshot("test.") == {}

    def test_failed_leader_is_not_kept(self, monkeypatch):
        model = ArmModel()
        image = _image(A.nop())
        telemetry = Telemetry()
        calls = _failing(monkeypatch, failures=1)
        with TraceBatcher(telemetry=telemetry) as batcher:
            with pytest.raises(RuntimeError, match="boom"):
                batcher.generate(model, image, Assumptions())
            retry = batcher.generate(model, image, Assumptions())
        assert len(calls) == 2
        assert retry.results[0x1000].cached is False
        assert "dedup_hits" not in telemetry.snapshot()["counters"]


def test_in_process_batcher_has_no_collection_window():
    """Nothing waits for other jobs to join a batch: a lone request is
    dispatched at once."""
    with TraceBatcher() as batcher:
        start = time.monotonic()
        batcher.generate(ArmModel(), _image(A.nop()), Assumptions())
        assert time.monotonic() - start < 5


def test_single_flight_and_keeping_hold_under_thread_contention(dispatched):
    """Eight job threads on two cores ask for overlapping opcode sets:
    every distinct key is dispatched once, and every other request is a
    hit that gets the serial trace."""
    model = ArmModel()
    words = [A.nop(), A.ret(), A.add_imm(0, 0, 5), A.add_imm(1, 1, 7)]
    serial = generate_instruction_map(model, _image(*words), Assumptions()).traces
    by_word = {word: serial[0x1000 + 4 * i] for i, word in enumerate(words)}
    telemetry = Telemetry()
    results, errors = [], []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with TraceBatcher(telemetry=telemetry) as batcher:

            def job(offset: int) -> None:
                chosen = [words[(offset + i) % len(words)] for i in range(3)]
                image = _image(*chosen, at=0x2000)
                try:
                    for _ in range(5):
                        result = batcher.generate(model, image, Assumptions())
                        results.append((chosen, result))
                except Exception as exc:  # noqa: BLE001 — reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=job, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    assert len(results) == 40
    for chosen, result in results:
        for i, word in enumerate(chosen):
            assert result.traces[0x2000 + 4 * i] == by_word[word]
    assert len(dispatched) == len(words)
    counters = telemetry.snapshot()["counters"]
    assert counters["trace_requests"] == 40 * 3
    assert counters["dedup_hits"] == 40 * 3 - len(words)
