"""A job's event stream follows the run: the build finishes first.

``build-done`` fires once the case is built, before the first block starts.
"""

from __future__ import annotations

from repro.service.protocol import JobRecord, SubmitRequest
from repro.service.runner import JobRunner
from repro.service.server import VerificationService


def test_build_done_once_before_every_block():
    service = VerificationService()
    job = JobRecord(SubmitRequest("binsearch_riscv", {"n": 3}))
    JobRunner(service).run_job(job)
    assert job.state == "done", job.error
    kinds = [event.kind for event in job.events_since(0)]
    assert kinds.count("build-done") == 1
    assert kinds.count("block-done") == 3
    built = kinds.index("build-done")
    assert all(
        index > built for index, kind in enumerate(kinds) if kind == "block-done"
    )
    assert kinds[-1] == "done"
    build_done = job.events_since(built)[0]
    assert build_done.data == {"instrs": job.result["instrs"], "blocks": 3}
