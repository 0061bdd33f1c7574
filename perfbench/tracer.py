"""In-memory span tracer that wraps the pipeline's public functions.

The program under test is not modified: :func:`install` replaces each
traced function or method with a timing wrapper *where its callers look it
up* — the defining module, every ``repro.*`` module that imported it by
name, or the class that owns the method.  Spans nest on one stack (the
processes under test are serial), so each layer reports its *self time*:
the span's duration minus the time its child spans cover.

A target that no longer exists is skipped and listed in
``Tracer.missing`` instead of failing the run, so the benchmark keeps
working when a later change deletes a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Layers a Solver.check is attributed to, nearest enclosing span first.
_SMT_CALLERS = {
    "isla": "isla", "logic.automation": "automation", "logic.checker": "checker",
}


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Self time per span name, call counts and free-form counters."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0  # time covered by outermost spans
        self.caches: list = []  # every DiskCache constructed while tracing
        self.missing: list[str] = []

    def enclosing(self, names) -> str | None:
        for frame in reversed(self.stack):
            if frame.name in names:
                return frame.name
        return None

    def span(self, fn, name: str, on_exit=None):
        """Wrap ``fn`` in a span.  ``on_exit(tracer, result, args, elapsed)``
        runs when it ends and may return the name to book the span under
        (used to split Isla by result kind)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            tracer.stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - t0
                tracer.stack.pop()
                label = name
                if on_exit is not None:
                    label = on_exit(tracer, result, args, elapsed) or name
                tracer.self_s[label] += elapsed - frame.child_s
                tracer.calls[label] += 1
                if tracer.stack:
                    tracer.stack[-1].child_s += elapsed
                else:
                    tracer.root_s += elapsed

        return wrapper

    def counter(self, fn, on_exit):
        """Wrap ``fn`` without a span: only ``on_exit`` observes the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_exit(tracer, result, args, 0.0)
            return result

        return wrapper

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "cache_stats": _sum_cache_stats(self.caches),
            "missing": list(self.missing),
        }


def _sum_cache_stats(caches) -> dict[str, int]:
    total: dict[str, int] = defaultdict(int)
    for cache in caches:
        for key, value in cache.stats.snapshot().items():
            total[key] += value
    return dict(total)


# -- hooks --------------------------------------------------------------------


def _on_build(tracer, case, args, elapsed):
    if case is not None:
        tracer.counts["frontend.opcodes"] += len(case.frontend.results)


def _on_isla(tracer, result, args, elapsed):
    if result is None:
        return None
    kind = (
        "cached" if result.cached
        else "parametric" if result.parametric
        else "direct"
    )
    tracer.counts[f"isla.{kind}_opcodes"] += 1
    tracer.counts["isla.paths"] += result.paths
    tracer.counts["isla.model_steps"] += result.model_steps
    tracer.counts["isla.solver_checks"] += result.solver_checks
    return f"isla.{kind}"


def _on_try_parametric(tracer, result, args, elapsed):
    tracer.counts["isla.family_attempts"] += 1
    if result is None:
        tracer.counts["isla.fallback_opcodes"] += 1


def _on_verify_program(tracer, report, args, elapsed):
    if report is None:
        return
    tracer.counts["logic.proof_steps"] += len(report.proof.steps)
    tracer.counts["logic.side_conditions"] += report.proof.num_side_conditions
    stats = report.solver_stats
    for key in ("encode_us", "solve_us", "slice_components"):
        tracer.counts[f"smt.{key}"] += stats.get(key, 0)


def _on_check(tracer, result, args, elapsed):
    # Inclusive time of the outermost check, by the layer that asked.
    if tracer.enclosing({"smt.check"}) is None:
        caller = _SMT_CALLERS.get(tracer.enclosing(_SMT_CALLERS), "other")
        tracer.counts[f"smt.check.{caller}_s"] += elapsed


def _on_cache_open(tracer, result, args, elapsed):
    tracer.caches.append(args[0])


# -- installation -------------------------------------------------------------

#: (module, attribute, span name, hook); ``attribute`` is a function.
_FUNCTIONS = [
    ("repro.arch.arm.decode", "decode_arm", "arch.decode_arm", None),
    ("repro.arch.riscv.decode", "decode_arm", "arch.decode_arm", None),
    ("repro.arch.ppc.decode", "decode_arm", "arch.decode_arm", None),
    ("repro.isla.executor", "trace_for_opcode", "isla", _on_isla),
    ("repro.isla.footprint", "simplify_trace", "isla.simplify", None),
    ("repro.analysis.wellformed", "maybe_assert_wellformed", "analysis.wf", None),
    ("repro.logic.automation", "verify_program", "logic.automation",
     _on_verify_program),
    ("repro.logic.checker", "check_proof", "logic.checker", None),
    ("repro.cosim.state", "diff_states", "cosim.diff", None),
]

#: (module, class, method, span name or None for count-only, hook).
_METHODS = [
    ("repro.smt.solver", "Solver", "check", "smt.check", _on_check),
    ("repro.smt.sat", "SatSolver", "solve", "smt.sat_solve", None),
    ("repro.isla.parametric", "ParametricEngine", "try_parametric", None,
     _on_try_parametric),
    ("repro.itl.opsem", "Runner", "run_trace", "itl.replay", None),
    ("repro.cosim.interp", "ArmInterp", "step", "cosim.interp", None),
    ("repro.cosim.interp", "RiscvInterp", "step", "cosim.interp", None),
    ("repro.cosim.interp", "PpcInterp", "step", "cosim.interp", None),
    ("repro.cosim.generate", "ProgramGenerator", "program", "cosim.generate",
     None),
    ("repro.cache.store", "DiskCache", "__post_init__", "cache.load",
     _on_cache_open),
    ("repro.cache.store", "DiskCache", "load_trace", "cache.load", None),
    ("repro.cache.store", "DiskCache", "load_family", "cache.load", None),
    ("repro.cache.store", "DiskCache", "load_footprint", "cache.load", None),
    ("repro.cache.store", "DiskCache", "smt_lookup", "cache.load", None),
    ("repro.cache.store", "DiskCache", "store_trace", "cache.store", None),
    ("repro.cache.store", "DiskCache", "store_family", "cache.store", None),
    ("repro.cache.store", "DiskCache", "store_footprint", "cache.store", None),
    ("repro.cache.store", "DiskCache", "smt_record", "cache.store", None),
    ("repro.cache.store", "DiskCache", "flush", "cache.store", None),
]

#: Modules whose import binds the traced names; imported before patching
#: so that every ``from x import f`` copy exists and is rebound.
_PRELOAD = [
    "repro.tools.verify", "repro.casestudies", "repro.cosim",
    "repro.cosim.driver", "repro.frontend.program", "repro.logic",
    "repro.parallel.scheduler",
]


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _rebind(original, wrapper) -> int:
    """Point every ``repro.*`` module-level binding of ``original`` at
    ``wrapper``; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper
                changed += 1
    return changed


def install(tracer: Tracer) -> None:
    """Patch every traced target; missing ones land in ``tracer.missing``."""
    for name in _PRELOAD:
        _import(name)
    casestudies = _import("repro.casestudies")
    functions = list(_FUNCTIONS)
    for case_name in getattr(casestudies, "__all__", ()):
        functions.append(
            (f"repro.casestudies.{case_name}", "build", "frontend.build", _on_build)
        )
    for mod_name, attr, span_name, hook in functions:
        module = _import(mod_name)
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        _rebind(original, tracer.span(original, span_name, hook))
    for mod_name, cls_name, attr, span_name, hook in _METHODS:
        cls = getattr(_import(mod_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            tracer.missing.append(f"{mod_name}.{cls_name}.{attr}")
            continue
        if span_name is None:
            wrapper = tracer.counter(original, hook)
        else:
            wrapper = tracer.span(original, span_name, hook)
        setattr(cls, attr, wrapper)
