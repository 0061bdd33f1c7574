"""The wire protocol: requests, job records, event streams."""

from __future__ import annotations

import pytest

from repro.service.protocol import (
    CANCELLED,
    DONE,
    FAILED_STATE,
    QUEUED,
    RUNNING,
    JobRecord,
    SubmitRequest,
)


class TestSubmitRequest:
    def test_round_trip(self):
        request = SubmitRequest(
            case="memcpy_arm",
            kwargs={"n": 4},
            priority="interactive",
            deadline_s=1.5,
            conflicts=1000,
        )
        assert SubmitRequest.from_json(request.to_json()) == request

    def test_defaults(self):
        request = SubmitRequest.from_json({"case": "rbit"})
        assert request.priority == "batch"
        assert request.kwargs == {}
        assert request.deadline_s is None
        assert request.conflicts is None

    def test_bad_priority_rejected(self):
        with pytest.raises(ValueError):
            SubmitRequest(case="rbit", priority="urgent")

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {},
            {"case": ""},
            {"case": 7},
            {"case": "rbit", "kwargs": [1, 2]},
            {"case": "rbit", "deadline_s": [1]},
            {"case": "rbit", "deadline_s": "nan"},
            {"case": "rbit", "conflicts": {}},
            {"case": "rbit", "conflicts": 2.5},
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(ValueError):
            SubmitRequest.from_json(payload)


class TestJobRecord:
    def test_fresh_job_is_queued_with_one_event(self):
        job = JobRecord(SubmitRequest(case="rbit"))
        assert job.state == QUEUED
        assert not job.terminal
        events = job.events_since(0)
        assert [e.kind for e in events] == ["queued"]
        assert events[0].data == {"case": "rbit"}

    def test_event_sequence_is_dense_and_resumable(self):
        job = JobRecord(SubmitRequest(case="rbit"))
        job.add_event("block-done", addr="0x1000", outcome="verified")
        job.add_event("block-done", addr="0x1004", outcome="verified")
        seqs = [e.seq for e in job.events_since(0)]
        assert seqs == [0, 1, 2]
        # Resume from a cursor: no repeats, no gaps.
        tail = job.events_since(2)
        assert [e.seq for e in tail] == [2]
        assert job.events_since(3) == []

    def test_lifecycle_done(self):
        job = JobRecord(SubmitRequest(case="rbit"))
        job.mark_running()
        assert job.state == RUNNING
        job.mark_done({"outcome": "verified"})
        assert job.state == DONE
        assert job.terminal
        assert job.result == {"outcome": "verified"}
        assert job.latency_s is not None
        kinds = [e.kind for e in job.events_since(0)]
        assert kinds == ["queued", "started", "done"]

    def test_lifecycle_failed_records_error(self):
        job = JobRecord(SubmitRequest(case="rbit"))
        job.mark_running()
        job.mark_failed("worker exploded")
        assert job.state == FAILED_STATE
        assert job.error == "worker exploded"
        assert job.terminal

    def test_lifecycle_cancelled(self):
        job = JobRecord(SubmitRequest(case="rbit"))
        job.mark_cancelled("service draining")
        assert job.state == CANCELLED
        assert job.error == "service draining"

    def test_snapshot_shape(self):
        job = JobRecord(SubmitRequest(case="uart", priority="bulk"))
        snap = job.snapshot()
        assert snap["case"] == "uart"
        assert snap["priority"] == "bulk"
        assert snap["state"] == QUEUED
        assert snap["outcome"] is None
        assert snap["events"] == 1
        job.mark_running()
        job.mark_done({"outcome": "degraded"})
        assert job.snapshot()["outcome"] == "degraded"

    def test_ids_are_unique(self):
        a = JobRecord(SubmitRequest(case="rbit"))
        b = JobRecord(SubmitRequest(case="rbit"))
        assert a.id != b.id
