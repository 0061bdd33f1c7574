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
from repro.parallel.scheduler import (
    TaskFailure,
    WorkerPool,
    generate_traces_parallel,
)
from repro.service.batcher import TraceBatcher
from repro.service.telemetry import Telemetry


class CountingPool:
    """Executes trace payloads in-process, recording every dispatch."""

    def __init__(self):
        self.dispatched = []

    def map_tasks_graceful(self, fn, payloads, on_result=None):
        self.dispatched.extend(payloads)
        return [fn(payload) for payload in payloads]


class FailingPool:
    def map_tasks_graceful(self, fn, payloads, on_result=None):
        return [TaskFailure("boom")] * len(payloads)


class TestKeys:
    def test_exact_key_ignores_address(self):
        payload = {"model": "m", "opcode": 7, "assumptions": [], "addr": 0x1000}
        other = dict(payload, addr=0x2000)
        assert TraceBatcher._exact_key(payload) == TraceBatcher._exact_key(other)

    def test_exact_key_covers_inputs(self):
        base = {"model": "m", "opcode": 7, "assumptions": []}
        assert TraceBatcher._exact_key(base) != TraceBatcher._exact_key(
            dict(base, opcode=8)
        )
        assert TraceBatcher._exact_key(base) != TraceBatcher._exact_key(
            dict(base, assumptions=[["PSTATE.EL", 2]])
        )

    def test_no_cache_falls_back_to_exact(self):
        batcher = TraceBatcher(cache=None)
        payload = {"model": "m", "opcode": 7, "assumptions": []}
        assert batcher._exact_key(payload).startswith("x:")


class TestGenerate:
    def test_results_identical_to_serial_frontend(self):
        model = ArmModel()
        image = ProgramImage().place(0x1000, [A.add_imm(0, 0, 5), A.ret()])
        serial = generate_instruction_map(model, image, Assumptions())
        with TraceBatcher(window_s=0) as batcher:
            batched = batcher.generate(model, image, Assumptions())
        assert sorted(batched.traces) == sorted(serial.traces)
        for addr in serial.traces:
            assert batched.traces[addr] == serial.traces[addr]

    def test_identical_opcodes_deduplicate(self):
        model = ArmModel()
        image = ProgramImage().place(0x1000, [A.nop(), A.nop()])
        telemetry = Telemetry()
        pool = CountingPool()
        # A real collection window: with window_s=0 the dispatcher may
        # finish the first request (warm process-global caches make the
        # worker near-instant) before the second is enqueued, and the
        # dedup hit this test asserts would legitimately not happen.
        with TraceBatcher(pool=pool, window_s=0.2, telemetry=telemetry) as batcher:
            result = batcher.generate(model, image, Assumptions())
        assert sorted(result.traces) == [0x1000, 0x1004]
        assert result.traces[0x1000] == result.traces[0x1004]
        counters = telemetry.snapshot()["counters"]
        assert counters["trace_requests"] == 2
        assert counters["dedup_hits"] == 1
        assert counters["batches"] >= 1
        assert len(pool.dispatched) == 1  # one leader, one follower

    def test_single_flight_across_threads(self):
        model = ArmModel()
        telemetry = Telemetry()
        pool = CountingPool()
        barrier = threading.Barrier(2)
        results = []

        def submit():
            image = ProgramImage().place(0x1000, [A.nop()])
            barrier.wait()
            results.append(batcher.generate(model, image, Assumptions()))

        # A generous window so both threads land inside one batch.
        with TraceBatcher(pool=pool, window_s=0.4, telemetry=telemetry) as batcher:
            threads = [threading.Thread(target=submit) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert len(results) == 2
        assert results[0].traces[0x1000] == results[1].traces[0x1000]
        assert len(pool.dispatched) == 1
        assert telemetry.snapshot()["counters"]["dedup_hits"] == 1

    def test_worker_failure_propagates_to_waiters(self):
        model = ArmModel()
        image = ProgramImage().place(0x1000, [A.nop()])
        with TraceBatcher(pool=FailingPool(), window_s=0) as batcher:
            with pytest.raises(RuntimeError, match="boom"):
                batcher.generate(model, image, Assumptions())

    def test_close_joins_dispatcher(self):
        batcher = TraceBatcher(window_s=0)
        image = ProgramImage().place(0x1000, [A.nop()])
        batcher.generate(ArmModel(), image, Assumptions())
        batcher.close()
        assert batcher._dispatcher is None or not batcher._dispatcher.is_alive()


class MarkingPool(CountingPool):
    """A :class:`CountingPool` whose every task reports one
    ``test.leader_runs`` count, so a test can see where counts land."""

    def map_tasks_graceful(self, fn, payloads, on_result=None):
        results = super().map_tasks_graceful(fn, payloads, on_result)
        for result in results:
            result["counters"] = {**result["counters"], "test.leader_runs": 1}
        return results


class FlakyPool(CountingPool):
    """Fails its first batch, then runs like a :class:`CountingPool`."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def map_tasks_graceful(self, fn, payloads, on_result=None):
        self.calls += 1
        if self.calls == 1:
            return [TaskFailure("boom")] * len(payloads)
        return super().map_tasks_graceful(fn, payloads, on_result)


class TestKeptTraces:
    def test_kept_key_is_a_hit_that_does_not_dispatch(self):
        model = ArmModel()
        image = ProgramImage().place(0x1000, [A.add_imm(0, 0, 5)])
        telemetry = Telemetry()
        pool = MarkingPool()
        with TraceBatcher(pool=pool, window_s=0, telemetry=telemetry) as batcher:
            with obs.scope() as first_run:
                first = batcher.generate(model, image, Assumptions())
            with obs.scope() as second_run:
                second = batcher.generate(model, image, Assumptions())
        assert len(pool.dispatched) == 1
        counters = telemetry.snapshot()["counters"]
        assert counters["trace_requests"] == 2
        assert counters["dedup_hits"] == 1
        assert second.traces[0x1000] == first.traces[0x1000]
        assert first.results[0x1000].cached is False
        assert second.results[0x1000].cached is True
        # The leader's counts belong to the job that ran it.
        assert first_run.snapshot("test.") == {"leader_runs": 1}
        assert second_run.snapshot("test.") == {}

    def test_failed_leader_is_not_kept(self):
        model = ArmModel()
        image = ProgramImage().place(0x1000, [A.nop()])
        telemetry = Telemetry()
        pool = FlakyPool()
        with TraceBatcher(pool=pool, window_s=0, telemetry=telemetry) as batcher:
            with pytest.raises(RuntimeError, match="boom"):
                batcher.generate(model, image, Assumptions())
            retry = batcher.generate(model, image, Assumptions())
        assert pool.calls == 2
        assert len(pool.dispatched) == 1
        assert retry.results[0x1000].cached is False
        assert "dedup_hits" not in telemetry.snapshot()["counters"]


def test_in_process_batcher_has_no_collection_window():
    """Without a process pool nothing can join a batch, so a window far
    longer than the run must not delay it."""
    image = ProgramImage().place(0x1000, [A.nop()])
    with TraceBatcher(pool=None, window_s=10) as batcher:
        start = time.monotonic()
        batcher.generate(ArmModel(), image, Assumptions())
        assert time.monotonic() - start < 5


def _codec_forbidden(*_args, **_kwargs):
    raise AssertionError("an in-process trace went through the text codec")


class TestInProcessCodec:
    @pytest.mark.parametrize("pool", [None, "worker-pool"])
    def test_in_process_batcher_skips_the_codec(self, monkeypatch, pool):
        model = ArmModel()
        image = ProgramImage().place(0x1000, [A.add_imm(0, 0, 5), A.ret()])
        serial = generate_instruction_map(model, image, Assumptions())
        monkeypatch.setattr("repro.cache.store.encode_trace", _codec_forbidden)
        monkeypatch.setattr("repro.cache.store.decode_trace", _codec_forbidden)
        with WorkerPool(1) as workers:
            assert workers.in_process
            chosen = workers if pool else None
            with TraceBatcher(pool=chosen, window_s=0.5) as batcher:
                batched = batcher.generate(model, image, Assumptions())
        assert batched.traces == serial.traces

    def test_in_process_parallel_generation_skips_the_codec(self, monkeypatch):
        model = ArmModel()
        image = ProgramImage().place(0x1000, [A.add_imm(0, 0, 5), A.ret()])
        serial = generate_instruction_map(model, image, Assumptions())
        monkeypatch.setattr("repro.cache.store.encode_trace", _codec_forbidden)
        monkeypatch.setattr("repro.cache.store.decode_trace", _codec_forbidden)
        with WorkerPool(1) as workers:
            parallel = generate_traces_parallel(
                model, image, Assumptions(), pool=workers
            )
        assert parallel.traces == serial.traces


class InProcessCountingPool(CountingPool):
    in_process = True


def test_single_flight_and_keeping_hold_under_thread_contention():
    """Eight job threads on two cores ask for overlapping opcode sets:
    every distinct key is dispatched once, and every other request is a
    hit that gets the serial trace."""
    model = ArmModel()
    words = [A.nop(), A.ret(), A.add_imm(0, 0, 5), A.add_imm(1, 1, 7)]
    serial = generate_instruction_map(
        model, ProgramImage().place(0x1000, words), Assumptions()
    ).traces
    by_word = {word: serial[0x1000 + 4 * i] for i, word in enumerate(words)}
    telemetry = Telemetry()
    pool = InProcessCountingPool()
    results, errors = [], []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with TraceBatcher(pool=pool, telemetry=telemetry) as batcher:

            def job(offset: int) -> None:
                chosen = [words[(offset + i) % len(words)] for i in range(3)]
                image = ProgramImage().place(0x2000, chosen)
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
    assert len(pool.dispatched) == len(words)
    counters = telemetry.snapshot()["counters"]
    assert counters["trace_requests"] == 40 * 3
    assert counters["dedup_hits"] == 40 * 3 - len(words)
