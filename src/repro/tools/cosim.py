"""CLI: mass differential co-simulation (fast interpreter vs ITL opsem).

Runs seeded random programs through the lockstep co-sim driver, either
in-process (default) or as bulk jobs on a running daemon (``--daemon``),
and reports divergences, trace misses by reason and per-decode-arm
coverage.  Exit status is 0 only when no divergence was found (and, with
``--min-coverage``, when the executed-arm coverage fraction meets the
gate).

Examples::

    python -m repro.tools.cosim --arch arm --seed 3 --count 500
    python -m repro.tools.cosim --arch all --count 200 --coverage-out cov.json
    python -m repro.tools.cosim --arch riscv --defect riscv-sra-logical \\
        --record-dir /tmp/corpus        # mutation check: must find + shrink
    python -m repro.tools.cosim --arch all --daemon --port 8642 \\
        --jobs 4 --priority bulk        # soak through the daemon
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _merge_payload(total: dict, payload: dict) -> None:
    total["cases"] += payload["cases"]
    total["instructions"] += payload["instructions"]
    total["skips"] += payload["skips"]
    total["trace_misses"] += payload["trace_misses"]
    for reason, count in payload.get("miss_reasons", {}).items():
        total["miss_reasons"][reason] = total["miss_reasons"].get(reason, 0) + count
    total["divergences"].extend(payload["divergences"])
    coverage = payload.get("coverage") or {}
    for arm, count in coverage.get("counts", {}).items():
        total["coverage"][arm] = total["coverage"].get(arm, 0) + count


def _run_local(arch_name: str, args) -> dict:
    from ..cosim import COSIM_ARCHS, CoSimDriver
    from ..cosim.driver import record_reproducer

    driver = CoSimDriver(
        COSIM_ARCHS[arch_name], defect=args.defect, max_steps=args.max_steps
    )
    report = driver.run_batch(
        seed=args.seed, count=args.count, shrink=not args.no_shrink
    )
    if args.record_dir:
        for divergence in report.divergences:
            record_reproducer(divergence, Path(args.record_dir))
    return report.to_json()


def _run_daemon(arch_name: str, args) -> dict:
    from ..service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port, socket_path=args.socket)
    jobs = []
    per_job = max(1, args.count // args.jobs)
    for index in range(args.jobs):
        job = client.submit(
            f"cosim:{arch_name}",
            kwargs={
                "seed": args.seed + index,
                "count": per_job,
                "defect": args.defect,
                "max_steps": args.max_steps,
                "shrink": not args.no_shrink,
            },
            priority=args.priority,
        )
        jobs.append(job["id"])
    merged = {
        "arch": arch_name, "cases": 0, "instructions": 0, "skips": 0,
        "trace_misses": 0, "miss_reasons": {}, "divergences": [], "coverage": {},
    }
    for job_id in jobs:
        final = client.wait(job_id, timeout=args.timeout)
        if final["state"] != "done":
            raise SystemExit(
                f"cosim job {job_id} ended {final['state']}: "
                f"{final.get('error') or 'no detail'}"
            )
        _merge_payload(merged, client.report(job_id))
    merged["coverage"] = {"counts": merged["coverage"]}
    return merged


def _coverage_fraction(coverage: dict, arch_name: str) -> float:
    from ..cosim.archs import decode_arm_names

    arms = decode_arm_names(arch_name)
    counts = coverage.get("counts", {})
    if not arms:
        return 1.0
    return sum(1 for arm in arms if counts.get(arm, 0) > 0) / len(arms)


def main(argv: list[str] | None = None) -> int:
    from ..cosim import COSIM_ARCHS, DEFECTS

    parser = argparse.ArgumentParser(prog="repro.tools.cosim", description=__doc__)
    parser.add_argument(
        "--arch", default="all", choices=[*COSIM_ARCHS, "all"],
        help="architecture to co-simulate (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=100, help="cases per arch")
    parser.add_argument(
        "--defect", default=None, choices=sorted(DEFECTS),
        help="inject a known interpreter defect (mutation testing)",
    )
    parser.add_argument("--max-steps", type=int, default=48)
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip divergence minimisation"
    )
    parser.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="append minimized reproducers to DIR/<arch>.jsonl",
    )
    parser.add_argument(
        "--coverage-out", default=None, metavar="FILE",
        help="write the merged per-arch coverage report as JSON",
    )
    parser.add_argument(
        "--min-coverage", type=float, default=None, metavar="FRAC",
        help="fail unless every arch's executed-arm coverage ≥ FRAC",
    )
    parser.add_argument("--daemon", action="store_true", help="run via a daemon")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--socket", default=None, metavar="PATH")
    parser.add_argument("--jobs", type=int, default=1, help="daemon jobs per arch")
    parser.add_argument(
        "--priority", default="bulk", choices=("interactive", "batch", "bulk")
    )
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    arch_names = list(COSIM_ARCHS) if args.arch == "all" else [args.arch]
    ok = True
    coverage_report: dict = {}
    for arch_name in arch_names:
        payload = (
            _run_daemon(arch_name, args) if args.daemon else _run_local(arch_name, args)
        )
        coverage = payload.get("coverage") or {}
        fraction = _coverage_fraction(coverage, arch_name)
        coverage_report[arch_name] = {
            "counts": coverage.get("counts", {}),
            "fraction_hit": round(fraction, 4),
        }
        divergences = payload["divergences"]
        print(
            f"{arch_name}: {payload['cases']} cases, "
            f"{payload['instructions']} instructions, "
            f"{len(divergences)} divergences, "
            f"{payload['skips']} skips, {payload['trace_misses']} trace misses, "
            f"arm coverage {fraction:.1%}"
        )
        reasons = payload.get("miss_reasons", {})
        for reason, count in sorted(reasons.items(), key=lambda item: (-item[1], item[0])):
            print(f"  {count} trace misses: {reason}")
        for divergence in divergences:
            ok = False
            print(
                f"  DIVERGENCE {divergence['arm']} {divergence['opcode']} "
                f"step {divergence['step']}: {divergence['reason']}"
            )
            if args.verbose:
                print(f"    case: {json.dumps(divergence['case'], sort_keys=True)}")
        if args.min_coverage is not None and fraction < args.min_coverage:
            ok = False
            print(
                f"  COVERAGE below gate: {fraction:.1%} < {args.min_coverage:.1%}",
                file=sys.stderr,
            )

    if args.coverage_out:
        Path(args.coverage_out).write_text(
            json.dumps(coverage_report, indent=2, sort_keys=True) + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
