"""CLI: run a case study's full pipeline and print a summary.

Verification runs *governed* (see :mod:`repro.resilience`): each block gets
an outcome of ``verified | degraded | unknown | failed`` and the process
exits non-zero unless every block verified cleanly and the independent
checker re-validated the proof.  A model error while a case is built
(:class:`~repro.isla.IslaError`) fails that case with one line on stderr,
and ``--all`` goes on to the next.  Budgets and deterministic fault
injection are exposed for resilience experiments.

Caching (see :mod:`repro.cache`): ``--cache-dir`` points at an on-disk
trace log so reruns skip symbolic execution (also honoured from
``$REPRO_CACHE_DIR``; ``--no-cache`` disables it).  Solver verdicts are
never read from disk.  Results — outcome maps and certificates — are
byte-identical across cache states and against the daemon.

Examples::

    python -m repro.tools.verify memcpy_arm --n 4
    python -m repro.tools.verify --all --cache-dir .repro-cache
    python -m repro.tools.verify memcpy_riscv --deadline 0.5 --conflicts 20000
    python -m repro.tools.verify binsearch_riscv --fault-seed 7 --fault-rate 0.1
"""

from __future__ import annotations

import argparse
import functools
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


def _render_cache_line(run) -> str:
    """This invocation's disk-cache activity (its run scope's ``disk.*``
    counts); the trace hits "from memory" are those a handle served
    without reading the file."""
    return (
        f"cache: traces {run['disk.trace_hits']} hits / {run['disk.trace_misses']} "
        f"misses, {run['disk.trace_mem_hits']} trace hits from memory"
    )


def _executor_stats(case) -> dict[str, int]:
    """Sum the per-opcode execution metrics across a case's frontend."""
    totals = {
        "paths": 0, "model_calls": 0, "model_steps": 0,
        "solver_checks": 0, "checks_skipped": 0, "cached_traces": 0,
    }
    for result in case.frontend.results.values():
        totals["paths"] += result.paths
        totals["model_calls"] += result.model_calls
        totals["model_steps"] += result.model_steps
        totals["solver_checks"] += result.solver_checks
        totals["checks_skipped"] += result.checks_skipped
        totals["cached_traces"] += bool(result.cached)
    return totals


def _case_stats(case, report) -> dict:
    """The merged solver/executor/cache stats payload for --stats-json."""
    return {
        "outcome": report.outcome,
        "blocks": len(report.blocks),
        "solver": dict(report.solver_stats),
        "cache": dict(report.cache_stats),
        "executor": _executor_stats(case),
    }


def run_one(name: str, n: int | None, args, cache=None, stats_out=None) -> bool:
    from .. import casestudies
    from ..isla import IslaError
    from ..logic.checker import CheckFailure, check_proof

    if name not in casestudies.__all__:
        print(f"unknown case study {name!r}", file=sys.stderr)
        return False
    marks = [time.perf_counter()]
    try:
        case, report = casestudies.verify_case(
            name,
            _build_kwargs(getattr(casestudies, name), n),
            cache=cache,
            budget_spec=_build_budget_spec(args),
            fault_seed=args.fault_seed,
            fault_rate=args.fault_rate,
            on_built=lambda _case: marks.append(time.perf_counter()),
        )
    except IslaError as exc:  # only the build runs Isla
        print(f"{name}: FAILED: build: IslaError: {exc}", file=sys.stderr)
        return False
    t0, t1 = marks
    timings = f"isla {t1 - t0:.2f}s, verify {time.perf_counter() - t1:.2f}s"

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: a caller may run
    ``main`` once per case, and building the parser costs more than
    parsing with it."""
    from .. import casestudies

    parser = argparse.ArgumentParser(prog="repro.tools.verify", description=__doc__)
    parser.add_argument("case", nargs="?", choices=casestudies.__all__)
    parser.add_argument("--all", action="store_true", help="run every case study")
    parser.add_argument("--n", type=int, default=None, help="array length where applicable")
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk trace cache directory (default: $REPRO_CACHE_DIR "
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
             "(byte-identical across cache states and against the daemon)",
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
    return parser


def main(argv: list[str] | None = None) -> int:
    from .. import casestudies

    parser = _parser()
    args = parser.parse_args(argv)
    if not args.all and not args.case:
        parser.error("give a case study name or --all")
    names = casestudies.__all__ if args.all else [args.case]

    from .. import obs
    from ..cache import resolve_cache
    from ..obs import Counters
    from ..resilience import handle_signals, shutdown_requested

    cache = resolve_cache(args.cache_dir, args.no_cache)
    stats: dict = {}
    # SIGINT/SIGTERM drain gracefully: in-flight blocks finish, the
    # rest land on the unknown rung, and the process exits 1 with a
    # partial report instead of a traceback.
    with handle_signals(), obs.scope() as run:
        ok = all(
            [
                run_one(name, args.n, args, cache=cache, stats_out=stats)
                for name in names
            ]
        )
        if shutdown_requested():
            print("shutdown requested: run drained, partial results above",
                  file=sys.stderr)
        if cache is not None and args.verbose:
            print(_render_cache_line(run))
    if args.stats_json:
        import json

        groups = ("solver", "cache", "executor")
        totals = Counters()
        for entry in stats.values():
            for group in groups:
                totals.add(entry[group], group + ".")
        by_group = {group: totals.snapshot(group + ".") for group in groups}
        payload = {"cases": stats, "totals": by_group, "ok": ok}
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
