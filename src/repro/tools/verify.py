"""CLI: run a case study's full pipeline and print a summary.

Verification runs *governed* (see :mod:`repro.resilience`): each block gets
an outcome of ``verified | degraded | unknown | failed`` and the process
exits non-zero unless every block verified cleanly and the independent
checker re-validated the proof.  Budgets and deterministic fault injection
are exposed for resilience experiments.

Parallelism and caching (see :mod:`repro.parallel` / :mod:`repro.cache`):
``--jobs N`` fans per-opcode symbolic execution and per-block proofs across
N worker processes; ``--cache-dir`` points at an on-disk trace/SMT cache so
reruns are near-instant (also honoured from ``$REPRO_CACHE_DIR``;
``--no-cache`` disables both).  Results — outcome maps and certificates —
are byte-identical across ``--jobs`` settings and cache states.

Examples::

    python -m repro.tools.verify memcpy_arm --n 4
    python -m repro.tools.verify --all --jobs 4 --cache-dir .repro-cache
    python -m repro.tools.verify memcpy_riscv --deadline 0.5 --conflicts 20000
    python -m repro.tools.verify binsearch_riscv --fault-seed 7 --fault-rate 0.1
"""

from __future__ import annotations

import argparse
import sys
import time


def _build_budget_spec(args):
    from ..resilience import BudgetSpec

    if args.deadline is None and args.conflicts is None:
        return None
    return BudgetSpec(
        deadline_s=args.deadline,
        conflict_allowance=args.conflicts,
    )


def _build_kwargs(module, n):
    import inspect

    if n is not None and "n" in inspect.signature(module.build).parameters:
        return {"n": n}
    return {}


def _render_cache_line(cache, before: dict) -> str:
    """This run's activity on the shared handle; "preloaded" counts the
    verdicts the handle already held when the run began."""
    d = {key: value - before[key] for key, value in cache.stats.snapshot().items()}
    return (
        f"cache: traces {d['trace_hits']} hits / {d['trace_misses']} misses, "
        f"smt {d['smt_hits']} hits / {d['smt_misses']} misses "
        f"({before['smt_loaded'] + before['smt_records']} preloaded)"
    )


def _run_serial(module, name, kwargs, args, cache):
    from contextlib import nullcontext

    from ..isla.parametric import engine
    from ..logic.automation import verify_program
    from ..parallel.config import configured
    from ..parallel.scheduler import pc_for
    from ..resilience import Budget, FaultInjector, inject
    from ..smt.solver import install_persistent_check_store

    spec = _build_budget_spec(args)
    injection = (
        inject(FaultInjector(args.fault_seed, rate=args.fault_rate))
        if args.fault_seed is not None
        else nullcontext()
    )
    previous = install_persistent_check_store(cache)
    # Trace generation — where parametric families are built and hit —
    # happens during the case *build*, so the delta spans build + verify.
    parametric_before = engine().stats.snapshot()
    try:
        t0 = time.perf_counter()
        with configured(jobs=1, cache=cache):
            case = module.build(**kwargs)
        t1 = time.perf_counter()
        with injection:
            report = verify_program(
                case.frontend.traces, case.specs, pc_for(module),
                budget=Budget(spec) if spec is not None else None,
            )
        t2 = time.perf_counter()
    finally:
        install_persistent_check_store(previous)
        if cache is not None:
            cache.flush()
    report.parametric_stats = engine().stats.delta(
        parametric_before, engine().stats.snapshot()
    )
    timings = f"isla {t1 - t0:.2f}s, verify {t2 - t1:.2f}s"
    return case, report, timings


def _run_parallel(module, name, kwargs, args, cache, pool):
    from ..parallel.scheduler import verify_case_parallel

    t0 = time.perf_counter()
    case, report = verify_case_parallel(
        name,
        kwargs,
        jobs=args.jobs,
        cache=cache,
        budget_spec=_build_budget_spec(args),
        fault_seed=args.fault_seed,
        fault_rate=args.fault_rate,
        pool=pool,
    )
    t1 = time.perf_counter()
    timings = f"jobs={args.jobs} build+verify {t1 - t0:.2f}s"
    return case, report, timings


def _executor_stats(case) -> dict[str, int]:
    """Sum the per-opcode execution metrics across a case's frontend."""
    totals = {
        "paths": 0, "model_calls": 0, "model_steps": 0,
        "solver_checks": 0, "checks_skipped": 0, "cached_traces": 0,
        "parametric_traces": 0,
    }
    for result in case.frontend.results.values():
        totals["paths"] += result.paths
        totals["model_calls"] += result.model_calls
        totals["model_steps"] += result.model_steps
        totals["solver_checks"] += result.solver_checks
        totals["checks_skipped"] += result.checks_skipped
        totals["cached_traces"] += bool(result.cached)
        totals["parametric_traces"] += bool(result.parametric)
    return totals


def _case_stats(case, report) -> dict:
    """The merged solver/executor/cache stats payload for --stats-json."""
    return {
        "outcome": report.outcome,
        "blocks": len(report.blocks),
        "solver": dict(report.solver_stats),
        "cache": dict(report.cache_stats),
        "parametric": dict(report.parametric_stats),
        "executor": _executor_stats(case),
    }


def run_one(
    name: str, n: int | None, args, pool=None, cache=None, stats_out=None
) -> bool:
    from .. import casestudies
    from ..logic.checker import CheckFailure, check_proof

    module = getattr(casestudies, name, None)
    if module is None:
        print(f"unknown case study {name!r}", file=sys.stderr)
        return False
    kwargs = _build_kwargs(module, n)

    if args.jobs > 1:
        case, report, timings = _run_parallel(module, name, kwargs, args, cache, pool)
    else:
        case, report, timings = _run_serial(module, name, kwargs, args, cache)

    # The checker runs outside injection: the certificate must stand on its
    # own regardless of how flaky the run that produced it was.
    t2 = time.perf_counter()
    try:
        check = check_proof(report.proof, expected_blocks=set(case.specs))
    except CheckFailure as exc:
        print(f"{name}: CHECK FAILED: {exc}", file=sys.stderr)
        return False
    t3 = time.perf_counter()

    if stats_out is not None:
        stats_out[name] = _case_stats(case, report)

    if getattr(args, "cert_dir", None):
        import pathlib

        cert_dir = pathlib.Path(args.cert_dir)
        cert_dir.mkdir(parents=True, exist_ok=True)
        (cert_dir / f"{name}.cert.json").write_text(report.proof.to_json())

    proof = report.proof
    status = "OK" if report.ok else report.outcome.upper()
    print(
        f"{name}: {status} — {case.asm_line_count} instrs, "
        f"{case.frontend.total_events} ITL events, {len(proof.steps)} proof "
        f"steps, {proof.num_side_conditions} side conditions "
        f"({timings}, re-check {t3 - t2:.2f}s)"
    )
    if not report.ok or args.verbose:
        for line in report.render().splitlines():
            print(f"  {line}")
        print(f"  checker: {check}")
    return report.ok


def main(argv: list[str] | None = None) -> int:
    from .. import casestudies

    all_names = list(casestudies.__all__)
    parser = argparse.ArgumentParser(prog="repro.tools.verify", description=__doc__)
    parser.add_argument("case", nargs="?", choices=all_names)
    parser.add_argument("--all", action="store_true", help="run every case study")
    parser.add_argument("--n", type=int, default=None, help="array length where applicable")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for trace generation and block proofs "
             "(1 = serial, in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk trace/SMT cache directory (default: $REPRO_CACHE_DIR "
             "if set, else no persistent cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk cache even if --cache-dir/$REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget in seconds for the whole run",
    )
    parser.add_argument(
        "--conflicts", type=int, default=None,
        help="total SAT-conflict allowance across all solver queries",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="enable deterministic fault injection with this seed",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.05,
        help="per-site fault probability when --fault-seed is given",
    )
    parser.add_argument(
        "--cert-dir", default=None, metavar="DIR",
        help="write each case's proof certificate to DIR/<case>.cert.json "
             "(byte-identical across --jobs settings and against the daemon)",
    )
    parser.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="dump merged solver/executor/cache statistics as JSON to PATH "
             "('-' for stdout)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the per-block outcome report even on success",
    )
    args = parser.parse_args(argv)
    if not args.all and not args.case:
        parser.error("give a case study name or --all")
    names = all_names if args.all else [args.case]

    from ..cache import resolve_cache

    cache = resolve_cache(args.cache_dir, args.no_cache)
    cache_before = cache.stats.snapshot() if cache is not None else {}
    pool = None
    if args.jobs > 1:
        from ..parallel import WorkerPool

        pool = WorkerPool(args.jobs)
    stats: dict = {}
    try:
        # SIGINT/SIGTERM drain gracefully: in-flight blocks finish, the
        # rest land on the unknown rung, caches flush on the way out, and
        # the process exits 1 with a partial report instead of a traceback.
        from ..resilience import handle_signals, shutdown_requested

        with handle_signals():
            ok = all(
                [
                    run_one(name, args.n, args, pool=pool, cache=cache, stats_out=stats)
                    for name in names
                ]
            )
            if shutdown_requested():
                print("shutdown requested: run drained, partial results above",
                      file=sys.stderr)
    finally:
        if pool is not None:
            pool.close()
        if cache is not None:
            cache.flush()
            if args.verbose:
                print(_render_cache_line(cache, cache_before))
    if args.stats_json:
        import json

        totals: dict[str, dict[str, int]] = {}
        for entry in stats.values():
            for group in ("solver", "cache", "parametric", "executor"):
                bucket = totals.setdefault(group, {})
                for key, value in entry[group].items():
                    bucket[key] = bucket.get(key, 0) + value
        payload = {"cases": stats, "totals": totals, "ok": ok}
        if args.stats_json == "-":
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            with open(args.stats_json, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"wrote {args.stats_json}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
