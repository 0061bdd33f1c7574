"""The daemon's kept traces: keys, reuse across jobs, identity.

Every test drives the map the way a daemon job does: the frontend's serial
loop consults it inline under :func:`~repro.frontend.program.configured`.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.arch.arm import ArmModel, encode as A
from repro.frontend import ProgramImage, generate_instruction_map
from repro.isla import Assumptions
from repro.itl.events import Reg
from repro.frontend.program import configured
from repro.casestudies import verify_case
from repro.resilience.faults import active_injector
from repro.service import batcher as batcher_module
from repro.service.batcher import KeptTraces
from repro.service.telemetry import Telemetry


@pytest.fixture
def dispatched(monkeypatch):
    """Record the opcode of every Isla run the map does not serve; the
    runs themselves are real."""
    calls = []
    run = batcher_module.trace_for_opcode

    def counting(model, opcode, assumptions, **kwargs):
        calls.append(opcode)
        return run(model, opcode, assumptions, **kwargs)

    monkeypatch.setattr(batcher_module, "trace_for_opcode", counting)
    return calls


def _failing(monkeypatch, failures: int | None = None) -> list:
    """Make the first ``failures`` Isla runs raise (all of them with
    ``None``); returns the list of every run's opcode."""
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


def _generate(kept, model, image, assumptions=None, cache=None):
    """One job's trace generation, served through ``kept``."""
    with configured(cache=cache, kept_traces=kept):
        return generate_instruction_map(model, image, assumptions or Assumptions())


class TestKeys:
    def test_exact_key_ignores_address(self, dispatched):
        model = ArmModel()
        kept = KeptTraces()
        first = _generate(kept, model, _image(A.nop()))
        second = _generate(kept, model, _image(A.nop(), at=0x2000))
        assert len(dispatched) == 1
        assert second.traces[0x2000] == first.traces[0x1000]

    def test_exact_key_covers_inputs(self, dispatched):
        model = ArmModel()
        pinned = Assumptions()
        pinned.pin("PSTATE.EL", 2, model.regfile.width_of(Reg.parse("PSTATE.EL")))
        kept = KeptTraces()
        _generate(kept, model, _image(A.nop()))
        _generate(kept, model, _image(A.ret()))
        _generate(kept, model, _image(A.nop()), pinned)
        assert dispatched == [A.nop(), A.ret(), A.nop()]

    def test_disk_lookup_reuses_the_request_key(self, monkeypatch, tmp_path):
        """With a disk cache, each request's trace key is computed once:
        the map's key is the one the disk lookup uses."""
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
        result = _generate(KeptTraces(), ArmModel(), _image(*words), cache=cache)
        assert len(result.traces) == 3
        assert computed == words
        assert cache.stats["trace_misses"] == 3  # the lookups did happen


class TestGenerate:
    def test_results_identical_to_serial_frontend(self):
        model = ArmModel()
        image = _image(A.add_imm(0, 0, 5), A.ret())
        serial = generate_instruction_map(model, image, Assumptions())
        kept = KeptTraces()
        first = _generate(kept, model, image)
        again = _generate(kept, model, image)
        for served in (first, again):
            assert sorted(served.traces) == sorted(serial.traces)
            for addr in serial.traces:
                assert served.traces[addr] == serial.traces[addr]

    def test_identical_opcodes_deduplicate(self, dispatched):
        model = ArmModel()
        telemetry = Telemetry()
        result = _generate(
            KeptTraces(telemetry=telemetry), model, _image(A.nop(), A.nop())
        )
        assert sorted(result.traces) == [0x1000, 0x1004]
        assert result.traces[0x1000] == result.traces[0x1004]
        counters = telemetry.snapshot()["counters"]
        assert counters["trace_requests"] == 2
        assert counters["dedup_hits"] == 1
        assert len(dispatched) == 1  # one run, one hit

    def test_worker_failure_propagates_to_waiters(self, monkeypatch):
        """A raising Isla run reaches the job that asked for it."""
        _failing(monkeypatch)
        with pytest.raises(RuntimeError, match="boom"):
            _generate(KeptTraces(), ArmModel(), _image(A.nop()))

    def test_an_injected_job_builds_without_injection(self):
        """``verify_case`` injects faults around the verify step only, so
        every trace its build asks for is requested with no injector
        active, and the map keeps them all."""
        kept = KeptTraces()
        requests = []
        serve = kept.trace_for_opcode

        def watching(model, opcode, assumptions, cache=None):
            requests.append(active_injector())
            return serve(model, opcode, assumptions, cache=cache)

        kept.trace_for_opcode = watching
        case, _report = verify_case(
            "memcpy_riscv", {"n": 2}, kept_traces=kept, fault_seed=7
        )
        assert len(requests) == len(case.frontend.traces) > 0
        assert requests == [None] * len(requests)
        assert kept._kept


class TestKeptTraces:
    def test_kept_key_is_a_hit_that_does_not_dispatch(self, monkeypatch):
        model = ArmModel()
        image = _image(A.add_imm(0, 0, 5))
        telemetry = Telemetry()
        calls = []
        run = batcher_module.trace_for_opcode

        def marking(*args, **kwargs):
            # Counts in the running job's scope, so the test can see where
            # an Isla run's counts land.
            calls.append(args)
            obs.count("test.leader_runs")
            return run(*args, **kwargs)

        monkeypatch.setattr(batcher_module, "trace_for_opcode", marking)
        kept = KeptTraces(telemetry=telemetry)
        with obs.scope() as first_run:
            first = _generate(kept, model, image)
        with obs.scope() as second_run:
            second = _generate(kept, model, image)
        assert len(calls) == 1
        counters = telemetry.snapshot()["counters"]
        assert counters["trace_requests"] == 2
        assert counters["dedup_hits"] == 1
        assert second.traces[0x1000] == first.traces[0x1000]
        assert first.results[0x1000].cached is False
        assert second.results[0x1000].cached is True
        # The run's counts belong to the job that ran it.
        assert first_run.snapshot("test.") == {"leader_runs": 1}
        assert second_run.snapshot("test.") == {}

    def test_failed_leader_is_not_kept(self, monkeypatch):
        model = ArmModel()
        image = _image(A.nop())
        telemetry = Telemetry()
        calls = _failing(monkeypatch, failures=1)
        kept = KeptTraces(telemetry=telemetry)
        with pytest.raises(RuntimeError, match="boom"):
            _generate(kept, model, image)
        retry = _generate(kept, model, image)
        assert len(calls) == 2
        assert retry.results[0x1000].cached is False
        assert "dedup_hits" not in telemetry.snapshot()["counters"]
        # The retry's success is kept.
        assert _generate(kept, model, image).results[0x1000].cached is True
        assert len(calls) == 2
