"""Cooperative graceful shutdown.

SIGINT/SIGTERM must never leave a governed run as a traceback: the
contract (same as budget exhaustion) is a *partial* :class:`RunReport`
whose unfinished blocks land on the ``unknown`` rung, with caches flushed
on the way out.  The mechanism is a process-wide :class:`threading.Event`
that every driver loop polls at block granularity:

- :func:`request_shutdown` sets the event (signal handlers, the daemon's
  drain sequence, and tests call it directly);
- :func:`shutdown_requested` is the cheap poll used by
  ``ProofEngine.verify_all_governed`` between blocks, the one loop that
  the CLI and the daemon both run;
- :func:`handle_signals` is a context manager installing SIGINT/SIGTERM
  handlers for the dynamic extent of a CLI run.  The *first* signal only
  sets the event (cooperative drain); a *second* SIGINT falls back to the
  default ``KeyboardInterrupt`` so a wedged run can still be killed.

The event is process-wide rather than context-scoped on purpose: a signal
is delivered to the process, and every concurrent run in it should drain.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager

_EVENT = threading.Event()

#: Reason string stamped on blocks abandoned by a drain; reports and tests
#: match on it, so keep it stable.
SHUTDOWN_REASON = "shutdown requested"


def shutdown_requested() -> bool:
    """True once a drain has been requested (sticky until reset)."""
    return _EVENT.is_set()


def request_shutdown() -> None:
    """Ask every governed loop in the process to drain at the next block."""
    _EVENT.set()


def reset_shutdown() -> None:
    """Clear the drain flag (test harnesses; the daemon between restarts)."""
    _EVENT.clear()


@contextmanager
def handle_signals(signals=(signal.SIGINT, signal.SIGTERM)):
    """Install cooperative-drain handlers for a CLI run.

    Only the main thread may install signal handlers; anywhere else this
    degrades to a no-op context (the event can still be set manually).
    Handlers are restored on exit and the event is cleared, so nested or
    sequential runs start fresh.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        if _EVENT.is_set() and signum == signal.SIGINT:
            # Second Ctrl-C: the user means it.
            raise KeyboardInterrupt
        _EVENT.set()

    previous = {}
    try:
        for sig in signals:
            previous[sig] = signal.signal(sig, _handler)
    except (ValueError, OSError):
        # Exotic embedding (no signal support): cooperative mode only.
        pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass
        _EVENT.clear()
