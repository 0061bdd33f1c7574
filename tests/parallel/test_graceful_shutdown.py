"""Graceful SIGINT/SIGTERM drain: block-granular, cache-safe, fail-safe.

The shutdown event (:mod:`repro.resilience.shutdown`) is cooperative:
verification loops poll it at block granularity, so the first signal lets
in-flight blocks finish and parks everything else on the ``unknown`` rung
with a uniform reason — never a torn certificate, never a traceback.
"""

from __future__ import annotations

import signal

import pytest

from repro.casestudies import verify_case
from repro.resilience import (
    SHUTDOWN_REASON,
    handle_signals,
    request_shutdown,
    reset_shutdown,
    shutdown_requested,
)


@pytest.fixture(autouse=True)
def _clean_shutdown_state():
    reset_shutdown()
    yield
    reset_shutdown()


class TestShutdownEvent:
    def test_request_and_reset(self):
        assert not shutdown_requested()
        request_shutdown()
        assert shutdown_requested()
        reset_shutdown()
        assert not shutdown_requested()


class TestSignalHandling:
    def test_first_signal_drains_not_raises(self):
        with handle_signals():
            signal.raise_signal(signal.SIGINT)
            assert shutdown_requested()  # no KeyboardInterrupt

    def test_sigterm_drains_too(self):
        with handle_signals():
            signal.raise_signal(signal.SIGTERM)
            assert shutdown_requested()

    def test_second_sigint_aborts(self):
        with pytest.raises(KeyboardInterrupt):
            with handle_signals():
                signal.raise_signal(signal.SIGINT)
                signal.raise_signal(signal.SIGINT)

    def test_handlers_restored_and_event_cleared_on_exit(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with handle_signals():
            signal.raise_signal(signal.SIGINT)
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert not shutdown_requested()


class TestVerificationDrain:
    def test_governed_run_parks_blocks_on_unknown(self):
        # The drain arrives after the build, before any block runs.
        case, report = verify_case(
            "memcpy_arm", {"n": 3}, on_built=lambda _case: request_shutdown()
        )
        assert set(report.blocks) == set(case.specs)
        for outcome in report.blocks.values():
            assert outcome.outcome == "unknown"
            assert outcome.reason == SHUTDOWN_REASON
        assert report.outcome == "unknown"
        assert not report.ok
        # The partial certificate still re-checks: drained blocks are
        # honestly recorded unknown, not silently verified.
        from repro.logic.checker import check_proof

        check_proof(report.proof, expected_blocks=set(case.specs))

    def test_parallel_driver_drains_to_partial_report(self):
        """A drain requested before the job starts still builds the case
        and reports every block unknown."""
        request_shutdown()
        case, report = verify_case("memcpy_arm", {"n": 3})
        assert set(report.blocks) == set(case.specs)
        assert all(
            b.outcome == "unknown" and b.reason == SHUTDOWN_REASON
            for b in report.blocks.values()
        )
        assert report.outcome == "unknown"
