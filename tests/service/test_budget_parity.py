"""A budgeted daemon job and the budgeted CLI run agree, block for block.

Both run :func:`repro.casestudies.verify_case`, so a job's conflict
allowance is one run budget shared by its blocks, exactly as
``tools/verify --conflicts`` spends it.  When the daemon split the
allowance into per-block shares instead, ``binsearch_riscv --n 3`` with
one conflict verified every block through the CLI but left two of them
``unknown`` through the daemon, whose shares came to 0 conflicts each.
"""

from __future__ import annotations

from repro.logic.proof import Proof
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import VerificationService
from repro.smt.solver import clear_check_cache

from ._http import launch

CASE, KWARGS, CONFLICTS = "binsearch_riscv", {"n": 3}, 1


def _cli_certificate(tmp_path) -> str:
    from repro.tools import verify

    clear_check_cache()
    argv = [
        CASE, "--n", str(KWARGS["n"]), "--conflicts", str(CONFLICTS),
        "--no-cache", "--cert-dir", str(tmp_path),
    ]
    assert verify.main(argv) == 0
    return (tmp_path / f"{CASE}.cert.json").read_text()


def _daemon_report() -> tuple[dict, list[dict]]:
    clear_check_cache()
    service = VerificationService()
    thread, (host, port) = launch(service)
    client = ServiceClient(host=host, port=port, timeout=300)
    events: list[dict] = []
    try:
        job = client.submit(CASE, kwargs=KWARGS, conflicts=CONFLICTS)
        final = client.wait(job["id"], timeout=300, on_event=events.append)
        assert final["state"] == "done", final
        return client.report(job["id"]), events
    finally:
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass
        thread.join(timeout=60)


def test_budgeted_job_matches_the_budgeted_cli(tmp_path):
    cli_text = _cli_certificate(tmp_path)
    cli_outcomes = {
        f"0x{addr:x}": outcome
        for addr, outcome in Proof.from_json(cli_text).outcomes.items()
    }
    assert len(cli_outcomes) == 3
    assert set(cli_outcomes.values()) == {"verified"}

    report, events = _daemon_report()
    outcomes = {addr: block["outcome"] for addr, block in report["blocks"].items()}
    assert outcomes == cli_outcomes
    assert report["budget"]["conflicts_used"] <= CONFLICTS
    assert report["certificate"] == cli_text
    # The governed loop's progress callback feeds one event per block.
    done = {e["data"]["addr"]: e["data"]["outcome"] for e in events
            if e["kind"] == "block-done"}
    assert done == cli_outcomes
