"""On-disk, content-addressed persistence for the verification pipeline.

One store, the **trace log**, memoises Isla symbolic execution: key =
content hash of (mini-Sail model source, opcode bits, assumption set,
naming prefix), value = the printed ITL trace plus execution metrics.
Solver verdicts are never persisted: nothing could re-check one read back
from disk, and an UNSAT verdict steers both Isla's pruning and the proof
automation.

The log lives under a ``v<CACHE_FORMAT_VERSION>`` directory root; bumping
the version (on any change to the key derivation, the trace grammar, or
the record layout) orphans every old entry at once — versioned
invalidation rather than per-entry migration.  Because the model *source*
is hashed into every trace key, editing the ISA model or any module of
the semantic core also invalidates exactly the entries it could affect.

A process holds one handle per root (:func:`open_cache`), so the log is
indexed once however many runs or jobs share the root, and a trace the
handle has stored or loaded is served from memory.

The cache is an optimisation, never an oracle: entries only memoise results
that are deterministic functions of their key, a corrupt entry reads as a
miss, and lookups are bypassed entirely while a fault injector is active
(injected faults must perturb real computations, not replay memoised ones).
"""

from .keys import (
    CACHE_FORMAT_VERSION,
    assumptions_fingerprint,
    model_fingerprint,
    opcode_signature,
    trace_key,
)
from .store import DiskCache, open_cache, resolve_cache

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DiskCache",
    "assumptions_fingerprint",
    "model_fingerprint",
    "opcode_signature",
    "open_cache",
    "resolve_cache",
    "trace_key",
]
