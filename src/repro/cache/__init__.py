"""On-disk, content-addressed persistence for the verification pipeline.

Two stores, one invalidation scheme:

- the **trace store** memoises Isla symbolic execution: key = content hash
  of (mini-Sail model source, opcode bits, assumption set, naming prefix),
  value = the printed ITL trace plus execution metrics;
- the **SMT store** memoises solver ``check`` verdicts: key = content hash
  of the asserted term set (the structural ``stable_key`` of each term),
  value = ``sat``/``unsat`` (never ``unknown`` — a verdict that depends on
  a resource budget must not outlive the run that set the budget).

Both live under a ``v<CACHE_FORMAT_VERSION>`` directory root; bumping the
version (on any change to the key derivation, the trace grammar, or solver
semantics) orphans every old entry at once — versioned invalidation rather
than per-entry migration.  Because the model *source* is hashed into every
trace key, editing the ISA model or any module of the semantic core also
invalidates exactly the entries it could affect.

A process holds one handle per root (:func:`open_cache`), so the verdict
log is parsed once however many runs or jobs share the root, and
a trace the handle has stored or loaded is served from memory.

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
    smt_query_key,
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
    "smt_query_key",
    "trace_key",
]
