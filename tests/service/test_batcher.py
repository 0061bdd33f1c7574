"""The cross-job dedup/batching layer: keys, single-flight, identity."""

from __future__ import annotations

import threading

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.frontend import ProgramImage, generate_instruction_map
from repro.isla import Assumptions
from repro.parallel.scheduler import TaskFailure
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
