"""CLI: submit verification jobs to a running daemon.

The client-side counterpart of ``python -m repro.tools.serve``.  Submits
one case study (or ``--all``), waits for the verdicts, and prints per-case
summary lines in the same shape as ``tools/verify`` — exit status 0 only
when every job came back ``verified``.

``--cert-dir`` writes each case's proof certificate exactly as the daemon
returned it; diff against ``tools/verify --cert-dir`` output to confirm
the byte-identity guarantee.

Examples::

    python -m repro.tools.submit memcpy_arm --port 8642
    python -m repro.tools.submit --all --concurrency 4 --repeat 2
    python -m repro.tools.submit uart --stream          # live block events
    python -m repro.tools.submit --all --cert-dir certs/daemon
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import threading


def _print_lock() -> threading.Lock:
    return _PRINT_LOCK


_PRINT_LOCK = threading.Lock()


def _run_case(client, name: str, args, cert_dir) -> bool:
    from ..service.client import ServiceError

    on_event = None
    if args.stream:
        def on_event(event: dict) -> None:
            if event["kind"] == "block-done":
                data = event["data"]
                with _print_lock():
                    print(f"  {name} {data['addr']}: {data['outcome']}")

    try:
        report = client.run(
            name,
            kwargs={"n": args.n} if args.n is not None else None,
            priority=args.priority,
            timeout=args.timeout,
            on_event=on_event,
        )
    except (ServiceError, TimeoutError, OSError) as exc:
        with _print_lock():
            print(f"{name}: SUBMIT FAILED — {exc}", file=sys.stderr)
        return False

    if cert_dir is not None:
        (cert_dir / f"{name}.cert.json").write_text(report["certificate"])

    status = "OK" if report["ok"] else report["outcome"].upper()
    with _print_lock():
        print(
            f"{name}: {status} — {report['instrs']} instrs, "
            f"{report['itl_events']} ITL events, "
            f"{len(report['blocks'])} blocks (daemon)"
        )
        if not report["ok"] or args.verbose:
            for addr, block in sorted(report["blocks"].items()):
                suffix = f" — {block['reason']}" if block["reason"] else ""
                print(f"  {addr}: {block['outcome']}{suffix}")
            print(f"  checker: {report['checker']}")
    return report["ok"]


def main(argv: list[str] | None = None) -> int:
    from ..cases import CASE_STUDIES

    all_names = list(CASE_STUDIES)
    parser = argparse.ArgumentParser(prog="repro.tools.submit", description=__doc__)
    parser.add_argument("case", nargs="?", choices=all_names)
    parser.add_argument("--all", action="store_true", help="submit every case study")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="connect over a Unix domain socket instead of TCP",
    )
    parser.add_argument("--n", type=int, default=None, help="array length where applicable")
    parser.add_argument(
        "--priority", default="batch", choices=("interactive", "batch", "bulk")
    )
    parser.add_argument(
        "--concurrency", type=int, default=1,
        help="submit this many jobs at once (client-side threads)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="submit each case this many times (exercises daemon dedup)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-job wait timeout in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="retry failed requests with jittered exponential backoff "
        "(connect failures and idempotent reads only — never double-submits)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-request wall-clock deadline bounding the whole retry loop",
    )
    parser.add_argument(
        "--cert-dir", default=None, metavar="DIR",
        help="write DIR/<case>.cert.json with the daemon's certificate bytes",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="print per-block progress events as they arrive",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the daemon's telemetry snapshot afterwards",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if not args.all and not args.case:
        parser.error("give a case study name or --all")
    # Repeats are interleaved adjacently (a, a, b, b, ...) so concurrent
    # duplicate submissions overlap in the daemon's dedup window.
    names = [
        name
        for name in (all_names if args.all else [args.case])
        for _ in range(max(1, args.repeat))
    ]

    from ..service.client import ServiceClient

    client = ServiceClient(
        host=args.host, port=args.port, socket_path=args.socket,
        retries=args.retries, deadline_s=args.deadline,
    )
    cert_dir = None
    if args.cert_dir:
        import pathlib

        cert_dir = pathlib.Path(args.cert_dir)
        cert_dir.mkdir(parents=True, exist_ok=True)

    if args.concurrency > 1:
        with concurrent.futures.ThreadPoolExecutor(args.concurrency) as executor:
            ok = all(
                list(
                    executor.map(
                        lambda name: _run_case(client, name, args, cert_dir), names
                    )
                )
            )
    else:
        ok = all([_run_case(client, name, args, cert_dir) for name in names])

    if args.metrics:
        json.dump(client.metrics(), sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
