"""The process-pool scheduler for trace generation and block proofs.

Cross-process protocol
======================

The protocol below applies to process workers only.  When the pool runs
in-process (:attr:`WorkerPool.in_process`), block proofs run directly on
the case the driver built and return their :class:`~repro.logic.proof.Proof`
objects; trace tasks still use the payload codec either way.

SMT terms are hash-consed into a per-process intern table and deliberately
unpicklable (identity *is* semantics: hot paths compare ``is TRUE``).  So
nothing model- or term-shaped ever crosses a process boundary.  Payloads
are plain JSON-able data:

- an ISA model travels as its class path (workers construct their own);
- an opcode travels as an int, or as an SMT-LIB sexpr plus the sorts of
  its free bits;
- assumptions travel as pinned ``(reg, sexpr)`` pairs plus constraint
  predicates applied to a probe variable and printed;
- a case study travels as its registry name plus build kwargs;
- results travel back as printed ITL traces, proof-certificate JSON, and
  counter dictionaries.

Each side parses into its own intern table, which preserves the identity
invariants.  Workers are pure functions of their payload; the parent
merges worker results in block-address order, making the merged report and
certificate independent of scheduling order.

Fault injection composes deterministically: each block derives its
injector seed by hashing ``(run seed, block address)``, so the schedule a
block sees depends only on the run seed and the block — not on which
worker ran it, in which process, or when.  (The *schedule* differs from a
serial governed run, which shares one per-site counter stream across
blocks; determinism here means parallel-run-to-parallel-run
reproducibility.)
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

from ..resilience.shutdown import SHUTDOWN_REASON, shutdown_requested

from .. import obs
from ..cache import drop_cache, open_cache
from ..obs import Counters
from ..isla.assumptions import Assumptions
from ..itl.events import Reg
from ..smt import builder as B
from ..smt.sorts import bv_sort

# Term text (de)serialisation is shared with the proof-certificate format.
from ..logic.proof import _term_from_record, _term_record


def pc_for(module) -> Reg:
    """The architecture PC register of a case-study module."""
    pc = getattr(module, "PC", None)
    if pc is not None:
        return pc
    from ..arch.arm.regs import PC

    return PC


# -- payload encoding -------------------------------------------------------


def _model_spec(model) -> tuple[str, str]:
    cls = type(model)
    return (cls.__module__, cls.__qualname__)


def _model_from_spec(spec: tuple[str, str]):
    import importlib

    module = importlib.import_module(spec[0])
    return getattr(module, spec[1])()


def _opcode_payload(opcode) -> dict:
    if isinstance(opcode, int):
        return {"int": opcode}
    if opcode.is_value():
        return {"int": opcode.value, "width": opcode.width}
    return {"term": _term_record(opcode)}


def _opcode_from_payload(payload: dict):
    if "term" in payload:
        return _term_from_record(payload["term"])
    if "width" in payload:
        return B.bv(payload["int"], payload["width"])
    return payload["int"]


def _assumptions_payload(model, assumptions) -> dict:
    assumptions = assumptions or Assumptions()
    pinned = [
        (reg.base, reg.field, _term_record(assumptions.pinned[reg]))
        for reg in sorted(assumptions.pinned, key=str)
    ]
    constrained = []
    for reg in sorted(assumptions.constrained, key=str):
        width = model.regfile.width_of(reg)
        probe = B.var("?probe", bv_sort(width))
        constrained.append(
            (reg.base, reg.field, width,
             _term_record(assumptions.constrained[reg](probe)))
        )
    return {"pinned": pinned, "constrained": constrained}


def _assumptions_from_payload(payload: dict) -> Assumptions:
    out = Assumptions()
    for base, field, record in payload["pinned"]:
        out.pinned[Reg(base, field)] = _term_from_record(record)
    for base, field, width, record in payload["constrained"]:
        term = _term_from_record(record)
        probe = B.var("?probe", bv_sort(width))

        def predicate(value, _term=term, _probe=probe):
            return B.substitute(_term, {_probe: value})

        out.constrained[Reg(base, field)] = predicate
    return out


def _cache_payload(cache) -> dict:
    """How a worker reaches its caller's cache: the root, and whether the
    root is ephemeral (see :attr:`repro.cache.DiskCache.ephemeral`)."""
    if cache is None:
        return {"cache_dir": None, "ephemeral": False}
    return {"cache_dir": str(cache.root), "ephemeral": cache.ephemeral}


def _release_worker_cache(payload: dict, cache) -> None:
    """Flush the task's cache writes; forget an ephemeral root's handle, so
    a long-lived worker keeps none per finished job."""
    if payload["ephemeral"]:
        drop_cache(payload["cache_dir"])
    elif cache is not None:
        cache.flush()


# -- the pool ---------------------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """Per-payload failure marker returned by :meth:`WorkerPool.map_tasks_graceful`.

    Carries only a reason string: by construction nothing result-shaped
    exists for the payload (the worker died, the task raised, or a drain
    cancelled it before it ran).  Callers map these onto the ``unknown``
    rung of the outcome lattice — fail-soft, never fail-silent.
    """

    reason: str


#: Reason used when a worker process disappears mid-task (SIGKILL, OOM).
WORKER_DIED = "worker process died"


class WorkerPool:
    """A lazy ``ProcessPoolExecutor`` with a serial in-process fallback.

    Pool construction or submission can fail in restricted environments
    (no ``fork``, no semaphores); results must not.  Any *pool-level*
    failure flips the pool into in-process mode and the batch is computed
    serially — task-level exceptions (a genuine ``IslaError``, say) still
    propagate to the caller.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs)
        self._executor = None
        self.unavailable = jobs <= 1

    @property
    def in_process(self) -> bool:
        """Whether tasks run serially in the calling process: one job, or
        a pool that could not start.  Until a pool starts, it counts as a
        process pool."""
        return self.unavailable

    def _ensure(self):
        if self._executor is None and not self.unavailable:
            try:
                methods = multiprocessing.get_all_start_methods()
                ctx = (
                    multiprocessing.get_context("fork")
                    if "fork" in methods
                    else multiprocessing.get_context()
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=ctx
                )
            except Exception:
                self.unavailable = True
        return self._executor

    def map_tasks(self, fn, payloads: list) -> list:
        """Apply ``fn`` to every payload; results in payload order."""
        payloads = list(payloads)
        executor = self._ensure()
        if executor is None:
            return [fn(p) for p in payloads]
        try:
            futures = [executor.submit(fn, p) for p in payloads]
            return [f.result() for f in futures]
        except (BrokenProcessPool, OSError):
            # The pool died (not the task): degrade to in-process serial.
            self.unavailable = True
            self._executor = None
            return [fn(p) for p in payloads]

    def map_tasks_graceful(self, fn, payloads: list, on_result=None) -> list:
        """Apply ``fn`` to every payload, fail-soft per payload.

        Returns one entry per payload, in payload order: the task's result,
        or a :class:`TaskFailure` when the worker process died, the task
        raised, or a graceful drain (:mod:`repro.resilience.shutdown`)
        cancelled it before it ran.  Unlike :meth:`map_tasks`, a broken
        pool never silently recomputes tasks — results that completed
        before the break are kept, everything else is reported as a
        failure, and the pool is rebuilt for the next batch (a resident
        daemon pool must survive one worker's death).

        ``on_result(index, result)`` fires from the waiting thread as each
        task completes (successes only) — live progress for the service's
        per-block event streams.
        """
        payloads = list(payloads)
        executor = self._ensure()
        if executor is None:
            out: list = []
            for i, payload in enumerate(payloads):
                if shutdown_requested():
                    out.append(TaskFailure(SHUTDOWN_REASON))
                    continue
                try:
                    result = fn(payload)
                except Exception as exc:  # noqa: BLE001 — fail-soft by contract
                    result = TaskFailure(f"{type(exc).__name__}: {exc}")
                out.append(result)
                if on_result is not None and not isinstance(result, TaskFailure):
                    on_result(i, result)
            return out

        futures: list = []
        for payload in payloads:
            if shutdown_requested():
                futures.append(None)  # drain: stop submitting
                continue
            try:
                futures.append(executor.submit(fn, payload))
            except Exception:  # pool already broken at submission time
                futures.append(None)
        index_of = {f: i for i, f in enumerate(futures) if f is not None}
        reported: set = set()

        def _report(done_set) -> None:
            if on_result is None:
                return
            for f in done_set:
                if f in reported or f.cancelled():
                    continue
                reported.add(f)
                try:
                    result = f.result()
                except Exception:
                    continue
                on_result(index_of[f], result)

        pending = set(index_of)
        while pending:
            done, pending = concurrent.futures.wait(
                pending,
                timeout=0.05,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            _report(done)
            if shutdown_requested() and pending:
                # Drain: cancel what has not started; in-flight tasks are
                # allowed to finish (that is the "drain", not an abort).
                for f in pending:
                    f.cancel()
                still_running = {f for f in pending if not f.cancelled()}
                done, _ = concurrent.futures.wait(still_running)
                _report(done)
                break

        broken = False
        results: list = []
        for f in futures:
            if f is None:
                results.append(TaskFailure(SHUTDOWN_REASON))
                continue
            if f.cancelled():
                results.append(TaskFailure(SHUTDOWN_REASON))
                continue
            try:
                results.append(f.result())
            except BrokenProcessPool:
                broken = True
                results.append(TaskFailure(WORKER_DIED))
            except concurrent.futures.CancelledError:
                results.append(TaskFailure(SHUTDOWN_REASON))
            except Exception as exc:  # noqa: BLE001 — fail-soft by contract
                results.append(TaskFailure(f"{type(exc).__name__}: {exc}"))
        if broken:
            # Replace the poisoned executor; the next batch gets a fresh
            # one (``unavailable`` stays False — one dead worker must not
            # demote a long-lived pool to serial forever).
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._executor = None
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- trace generation fan-out -----------------------------------------------


def _scoped(task):
    """A worker task run in its own run scope (:mod:`repro.obs`), whose
    snapshot rides in the result as ``"counters"`` for the parent to add
    once — the same path whether the pool runs in processes or in-process.
    """

    @functools.wraps(task)
    def worker(payload: dict) -> dict:
        with obs.scope() as run:
            result = task(payload)
        result["counters"] = run.snapshot()
        return result

    return worker


@_scoped
def _trace_worker(payload: dict) -> dict:
    from ..cache.store import encode_trace
    from ..isla.executor import trace_for_opcode
    from ..smt.solver import install_persistent_check_store

    model = _model_from_spec(payload["model"])
    opcode = _opcode_from_payload(payload["opcode"])
    assumptions = _assumptions_from_payload(payload["assumptions"])
    cache = open_cache(payload["cache_dir"]) if payload["cache_dir"] else None
    previous = install_persistent_check_store(cache)
    try:
        result = trace_for_opcode(model, opcode, assumptions, cache=cache)
    finally:
        install_persistent_check_store(previous)
        _release_worker_cache(payload, cache)
    body, extern = encode_trace(result.trace)
    return {
        "addr": payload["addr"],
        "trace": body,
        "extern": extern,
        "paths": result.paths,
        "model_calls": result.model_calls,
        "model_steps": result.model_steps,
        "solver_checks": result.solver_checks,
        "checks_skipped": result.checks_skipped,
        "cached": result.cached,
    }


def _trace_payloads(model, image, default_assumptions, per_address, cache) -> list:
    """One :func:`_trace_worker` payload per opcode, in address order."""
    per_address = per_address or {}
    return [
        {
            "addr": addr,
            "model": _model_spec(model),
            "opcode": _opcode_payload(image.opcodes[addr]),
            "assumptions": _assumptions_payload(
                model,
                (default_assumptions or Assumptions()).merged_with(
                    per_address.get(addr)
                ),
            ),
            **_cache_payload(cache),
        }
        for addr in sorted(image.opcodes)
    ]


def _isla_result(item: dict):
    """A :func:`_trace_worker` result, parsed into this process's terms."""
    from ..cache.store import decode_trace
    from ..isla.executor import IslaResult

    return IslaResult(
        decode_trace(item["trace"], item["extern"]),
        paths=item["paths"],
        model_calls=item["model_calls"],
        model_steps=item["model_steps"],
        solver_checks=item["solver_checks"],
        checks_skipped=item["checks_skipped"],
        exhausted=None,
        cached=item["cached"],
    )


def generate_traces_parallel(
    model,
    image,
    default_assumptions=None,
    per_address=None,
    jobs: int = 1,
    cache=None,
    pool: WorkerPool | None = None,
):
    """Fan per-opcode Isla runs across worker processes.

    Returns a :class:`repro.frontend.program.FrontendResult` identical (up
    to execution metrics of cache hits) to the serial path: traces are
    parsed back into the parent's intern table in address order.
    """
    from ..frontend.program import FrontendResult

    if cache is not None:
        cache.flush()  # workers append to the same log; no parent leftovers
    payloads = _trace_payloads(model, image, default_assumptions, per_address, cache)
    own_pool = pool is None
    pool = pool or WorkerPool(jobs)
    try:
        raw = pool.map_tasks(_trace_worker, payloads)
    finally:
        if own_pool:
            pool.close()
    traces = {}
    results = {}
    for item in raw:
        result = _isla_result(item)
        traces[item["addr"]] = result.trace
        results[item["addr"]] = result
        obs.add(item["counters"])
    return FrontendResult(traces, results)


# -- block-proof fan-out ----------------------------------------------------


def _block_fault_seed(seed: int, addr: int) -> int:
    """A per-block injector seed: a pure function of (run seed, block)."""
    digest = hashlib.sha256(f"{seed}:{addr:#x}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _verify_block(case, payload: dict) -> dict:
    """Verify one block of a built case under the payload's budget share and
    fault seed.  The result carries the :class:`~repro.logic.proof.Proof`
    object; only a process worker turns it into JSON."""
    from contextlib import nullcontext

    from .. import casestudies
    from ..logic.automation import verify_program
    from ..resilience import Budget, BudgetSpec, FaultInjector, inject

    addr = payload["addr"]
    budget = (
        Budget(BudgetSpec(**payload["budget_spec"]))
        if payload["budget_spec"] is not None
        else None
    )
    fault = payload["fault"]
    if fault is not None:
        # Fault schedules are pure functions of (seed, site, per-site
        # counter) — but how many *decisions* a site sees depends on
        # which queries short-circuit in the in-memory check cache, and
        # a pooled worker's cache holds whatever earlier tasks left
        # behind.  Start the injected verify phase cache-cold so the
        # decision stream (and hence the certificate) is a function of
        # the payload alone, not of task-to-worker placement.
        from ..smt.solver import clear_check_cache

        clear_check_cache()
    injection = (
        inject(
            FaultInjector(
                _block_fault_seed(fault["seed"], addr), rate=fault["rate"]
            )
        )
        if fault is not None
        else nullcontext()
    )
    with injection:
        report = verify_program(
            case.frontend.traces,
            case.specs,
            pc_for(getattr(casestudies, payload["case"])),
            budget=budget,
            blocks=[addr],
        )
    outcome = report.blocks[addr]
    return {
        "addr": addr,
        "outcome": {
            "outcome": outcome.outcome,
            "reason": outcome.reason,
            "residuals": outcome.residuals,
        },
        "proof": report.proof,
        "solver_stats": report.solver_stats,
        "cache_stats": report.cache_stats,
        "budget": budget.snapshot() if budget is not None else None,
        "faults": len(report.faults),
    }


@_scoped
def _verify_block_worker(payload: dict) -> dict:
    """The process worker: rebuild the case, then :func:`_verify_block`."""
    from .. import casestudies
    from ..smt.solver import install_persistent_check_store
    from .config import configured

    module = getattr(casestudies, payload["case"])
    cache = open_cache(payload["cache_dir"]) if payload["cache_dir"] else None
    previous = install_persistent_check_store(cache)
    try:
        # Traces come warm from the shared disk cache.  The build runs
        # fault-free, matching the serial driver where only the verify
        # phase is inside the injection scope.
        with configured(jobs=1, cache=cache):
            case = module.build(**dict(payload["kwargs"]))
        result = _verify_block(case, payload)
    finally:
        install_persistent_check_store(previous)
        _release_worker_cache(payload, cache)
    result["proof"] = result["proof"].to_json()
    return result


def verify_case_parallel(
    name: str,
    build_kwargs: dict | None = None,
    jobs: int = 1,
    cache=None,
    budget_spec=None,
    fault_seed: int | None = None,
    fault_rate: float = 0.05,
    pool: WorkerPool | None = None,
    batcher=None,
    progress=None,
    on_built=None,
):
    """Build a case study and verify each block as its own task.

    Returns ``(case, report)`` where ``report`` is a merged
    :class:`~repro.resilience.outcome.RunReport`.  The merge is performed
    in block-address order throughout — outcomes, certificate steps,
    budget absorption — so the result is a deterministic function of the
    inputs, independent of worker scheduling.

    When the pool runs in-process (:attr:`WorkerPool.in_process`), each
    block is verified directly on the case built here.  Otherwise each
    block goes to a process worker that rebuilds the case; without a
    caller ``cache`` those workers share an ephemeral cache scoped to this
    call, so they start warm without anything being persisted.

    The run-wide ``budget_spec`` is partitioned across blocks with
    :meth:`~repro.resilience.budget.BudgetSpec.partition` (conflicts
    divided, deadline and per-query knobs replicated) and block
    consumption is folded back into one run-wide budget via
    :meth:`~repro.resilience.budget.Budget.absorb`.

    Fail-soft dispatch: block tasks run through
    :meth:`WorkerPool.map_tasks_graceful`, so a killed worker process, a
    raising block or a graceful drain (SIGINT/SIGTERM) turns the affected
    blocks into ``unknown`` outcomes — never a traceback, never a silent
    ``verified`` — and their partitioned budget shares are *not* absorbed
    (the parent budget only ever records resources a block actually
    reported consuming).

    ``batcher`` optionally routes the build's trace generation through a
    shared :class:`repro.service.batcher.TraceBatcher` (the daemon's
    cross-job dedup layer); ``on_built(case)`` fires once the build is
    done, before any block starts; ``progress(addr, outcome)`` fires as
    each block's verdict arrives.
    """
    import tempfile

    from .. import casestudies
    from ..logic.proof import Proof
    from ..resilience import Budget
    from ..resilience.outcome import UNKNOWN, BlockOutcome, RunReport
    from ..smt.solver import LRU_COUNTERS
    from .config import configured

    module = getattr(casestudies, name)
    build_kwargs = build_kwargs or {}

    own_pool = pool is None
    pool = pool or WorkerPool(jobs)
    ephemeral = None
    try:
        if cache is None and not getattr(pool, "in_process", False):
            # Process workers rebuild the case; without a shared cache
            # every worker would redo the whole image's symbolic execution.
            ephemeral = tempfile.TemporaryDirectory(prefix="repro-cache-")
            cache = open_cache(ephemeral.name)
            cache.ephemeral = True
        # The job's run scope; the blocks' counts join it below.
        with configured(
            jobs=jobs, cache=cache, pool=pool, batcher=batcher
        ), obs.scope() as run:
            case = module.build(**build_kwargs)
        if cache is not None:
            cache.flush()
        if on_built is not None:
            on_built(case)
        addrs = sorted(case.specs)
        specs = (
            budget_spec.partition(len(addrs))
            if budget_spec is not None and addrs
            else [None] * len(addrs)
        )
        fault = (
            {"seed": fault_seed, "rate": fault_rate}
            if fault_seed is not None
            else None
        )
        payloads = [
            {
                "case": name,
                "kwargs": sorted(build_kwargs.items()),
                "addr": addr,
                **_cache_payload(cache),
                "budget_spec": asdict(spec) if spec is not None else None,
                "fault": fault,
            }
            for addr, spec in zip(addrs, specs)
        ]
        # A pool that failed to start during the build runs in-process too.
        in_process = getattr(pool, "in_process", False)
        task = (
            _scoped(functools.partial(_verify_block, case))
            if in_process
            else _verify_block_worker
        )
        on_result = None
        if progress is not None:
            def on_result(index, item, _progress=progress):
                _progress(item["addr"], item["outcome"]["outcome"])
        raw = pool.map_tasks_graceful(task, payloads, on_result=on_result)
    finally:
        if own_pool:
            pool.close()
        if ephemeral is not None:
            drop_cache(ephemeral.name)
            ephemeral.cleanup()

    merged_proof = Proof()
    run_budget = Budget(budget_spec) if budget_spec is not None else None
    report = RunReport(proof=merged_proof, budget=run_budget)
    solver_totals = Counters()
    cache_totals = Counters()
    fault_count = 0
    # Failures carry no result payload: recover the block address from the
    # payload the task was given.  Payloads are address-ordered, and so is
    # the merge.
    for payload, item in zip(payloads, raw):
        addr = payload["addr"]
        if isinstance(item, TaskFailure):
            report.blocks[addr] = BlockOutcome(addr, UNKNOWN, reason=item.reason)
            merged_proof.outcomes[addr] = UNKNOWN
            # The dead/cancelled task reported no consumption: its
            # partitioned budget share stays unspent in the parent.
            continue
        sub = item["proof"] if in_process else Proof.from_json(item["proof"])
        merged_proof.steps.extend(sub.steps)
        merged_proof.blocks_verified.extend(sub.blocks_verified)
        merged_proof.residual_obligations.extend(sub.residual_obligations)
        merged_proof.outcomes.update(sub.outcomes)
        out = item["outcome"]
        report.blocks[addr] = BlockOutcome(
            addr, out["outcome"], reason=out["reason"], residuals=out["residuals"]
        )
        solver_totals.add(item["solver_stats"])
        cache_totals.add(item["cache_stats"])
        run.add(item["counters"])
        if run_budget is not None and item["budget"] is not None:
            run_budget.absorb(item["budget"])
        fault_count += item["faults"]
    report.solver_stats = solver_totals.snapshot()
    # Summed gauges mean nothing: the check-cache counters only.
    report.cache_stats = {name: cache_totals[name] for name in LRU_COUNTERS}
    obs.add(run.snapshot())
    if fault_count:
        report.faults = tuple(range(fault_count))  # count only; events stay
        # in the workers — FaultEvent streams are per-process diagnostics.
    return case, report
