"""A job's event stream follows the run: the build finishes first.

``build-done`` fires once the case is built, before the first block starts,
whether the blocks run in-process on the built case or in worker processes.
"""

from __future__ import annotations

import pytest

from repro.service.protocol import JobRecord, SubmitRequest
from repro.service.runner import JobRunner
from repro.service.server import VerificationService


@pytest.mark.parametrize("pool_jobs", [1, 2])
def test_build_done_once_before_every_block(pool_jobs):
    service = VerificationService(
        pool_jobs=pool_jobs, block_jobs=pool_jobs, runners=1
    )
    job = JobRecord(SubmitRequest("binsearch_riscv", {"n": 3}))
    try:
        JobRunner(service, "runner-test").run_job(job)
    finally:
        service.batcher.close()
        service.pool.close()
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
