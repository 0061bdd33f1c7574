"""Content-hash key derivation for the on-disk caches.

The governing rule: a key must cover *every* input the cached computation
depends on, and nothing it does not.  Over-approximating (hashing a little
too much source) only costs cold reruns; under-approximating would serve
stale results, so when in doubt a module goes into the fingerprint.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect

from ..smt.smtlib import term_to_sexpr
from ..smt.terms import Term

#: Bump on any change to key derivation, the trace s-expression grammar, the
#: proof/solver semantics, or the stored value layout.  Old cache directories
#: become unreachable (versioned invalidation).
CACHE_FORMAT_VERSION = 4

#: Modules whose source participates in every trace key: the symbolic
#: executor and everything it evaluates through.  A change to any of these
#: can change the generated trace, so it must invalidate cached traces.
_SEMANTIC_MODULES = (
    "repro.sail.model",
    "repro.sail.primitives",
    "repro.sail.iface",
    "repro.isla.executor",
    "repro.isla.footprint",
    "repro.isla.assumptions",
    "repro.smt.builder",
    "repro.smt.terms",
    "repro.itl.events",
    "repro.itl.trace",
)


def _module_source(name: str, required: bool = False) -> str:
    """The source of module ``name``, or a name-only stand-in.

    ``required`` modules (the :data:`_SEMANTIC_MODULES`) must import: a
    stale or misspelt entry there would otherwise drop out of every key.
    """
    try:
        module = importlib.import_module(name)
    except ImportError:
        if required:
            raise
        return f"<no-source:{name}>"
    try:
        return inspect.getsource(module)
    except (OSError, TypeError):
        # Source unavailable (frozen build): fall back to the module name
        # alone.  Weaker invalidation, still a stable key.
        return f"<no-source:{name}>"


_model_fingerprints: dict[type, str] = {}


def model_fingerprint(model) -> str:
    """Hash of the ISA model's defining source plus the semantic core.

    Covers the model class's module, its register-file sibling module (the
    conventional ``regs`` neighbour), every base-class module, and the
    executor/SMT/ITL modules a trace's content flows through.
    """
    cls = type(model)
    cached = _model_fingerprints.get(cls)
    if cached is not None:
        return cached
    names: list[str] = []
    for base in cls.__mro__:
        if base.__module__.startswith("repro"):
            names.append(base.__module__)
    head = cls.__module__.rsplit(".", 1)[0]
    names.append(f"{head}.regs")
    names.extend(_SEMANTIC_MODULES)
    digest = hashlib.sha256()
    digest.update(f"{cls.__module__}.{cls.__qualname__}".encode())
    for name in sorted(set(names)):
        digest.update(name.encode())
        source = _module_source(name, required=name in _SEMANTIC_MODULES)
        digest.update(source.encode())
    fingerprint = digest.hexdigest()
    _model_fingerprints[cls] = fingerprint
    return fingerprint


def _var_signature(term: Term) -> str:
    return "".join(
        f"|{v.name}:{v.sort!r}"
        for v in sorted(term.free_vars(), key=lambda v: (v.name, repr(v.sort)))
    )


def opcode_signature(opcode: int | Term, width: int = 32) -> str:
    """A stable textual identity for an opcode (concrete or symbolic)."""
    if isinstance(opcode, int):
        return f"#{opcode:0{width // 4}x}"
    if opcode.is_value():
        return f"#{opcode.value:0{opcode.width // 4}x}"
    return term_to_sexpr(opcode) + _var_signature(opcode)


def assumptions_fingerprint(model, assumptions) -> str:
    """A stable textual identity for an :class:`~repro.isla.Assumptions`.

    Pinned registers serialise directly.  Constraint *predicates* are
    Python callables; their identity is taken extensionally, by applying
    each to a probe variable of the register's width and printing the
    resulting term — two predicates producing the same constraint term get
    the same key, which is exactly the equivalence the executor sees.
    """
    from ..smt import builder as B
    from ..smt.sorts import bv_sort

    if assumptions is None:
        return "none"
    # Pin-only fingerprints are model-independent, so they memoize on the
    # object (the hot path: every trace key recomputes this).
    # The length token catches callers that grow the dicts directly instead
    # of through ``pin``/``constrain`` (which also invalidate).
    token = (len(assumptions.pinned), len(assumptions.constrained))
    cached = getattr(assumptions, "_fingerprint_cache", None)
    if cached is not None and cached[0] == token:
        return cached[1]
    parts: list[str] = []
    for reg in sorted(assumptions.pinned, key=str):
        value = assumptions.pinned[reg]
        parts.append(f"pin {reg} {term_to_sexpr(value)}{_var_signature(value)}")
    for reg in sorted(assumptions.constrained, key=str):
        width = model.regfile.width_of(reg)
        probe = B.var("?probe", bv_sort(width))
        applied = assumptions.constrained[reg](probe)
        parts.append(
            f"constrain {reg} {term_to_sexpr(applied)}{_var_signature(applied)}"
        )
    out = "\n".join(parts)
    if not assumptions.constrained:  # constraint probes depend on the model
        assumptions._fingerprint_cache = (token, out)
    return out


def trace_key(model, opcode, assumptions, name_prefix: str = "v") -> str:
    """Cache key for one Isla run: (model source, opcode, assumptions)."""
    payload = "\n".join(
        (
            "trace-v1",
            model_fingerprint(model),
            opcode_signature(opcode, model.instr_bytes * 8),
            assumptions_fingerprint(model, assumptions),
            f"prefix={name_prefix}",
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()

