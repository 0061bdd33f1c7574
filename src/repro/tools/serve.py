"""CLI: run the persistent verification daemon.

Starts a :class:`repro.service.server.VerificationService` — resident
on-disk cache and cross-job kept traces — and serves the JSON
job API over local TCP (default) or a Unix domain socket.  Pair with
``python -m repro.tools.submit`` or any HTTP client.  The daemon runs one
job at a time and queues the rest; for parallelism across jobs run a
fleet of shards (``python -m repro.tools.fleet``).

SIGINT/SIGTERM drain gracefully: admission closes, queued jobs are
cancelled, in-flight jobs finish their current blocks and report the rest
``unknown``, caches flush, and the process exits 0.

Examples::

    python -m repro.tools.serve --port 8642 --cache-dir .repro-cache
    python -m repro.tools.serve --socket /tmp/repro.sock
    python -m repro.tools.serve --deadline 300 --conflicts 500000   # service pool
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys


#: What a verification or cosim job imports beyond the service layer.
PREBIND_MODULES = (
    "repro.analysis.wellformed",
    "repro.arch.arm.templates",
    "repro.arch.ppc.templates",
    "repro.arch.riscv.templates",
    "repro.casestudies",
    "repro.cosim",
    "repro.logic.checker",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.serve", description=__doc__)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 = pick a free one and print it)",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a Unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk trace/SMT cache kept warm across jobs",
    )
    parser.add_argument(
        "--max-queue", type=int, default=64,
        help="admission cap on queued jobs",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-job wall-clock budget (service-wide spec)",
    )
    parser.add_argument(
        "--conflicts", type=int, default=None,
        help="service-wide SAT-conflict pool; jobs are rejected once spent",
    )
    parser.add_argument(
        "--shard-id", default=None,
        help="identity reported on /healthz when run as a fleet shard",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress structured JSON logs on stderr",
    )
    args = parser.parse_args(argv)

    # Everything a job runs is imported before the socket binds, so no
    # job pays for compiling it (``PREBIND_MODULES``, pinned by a test).
    import importlib

    for module in PREBIND_MODULES:
        importlib.import_module(module)
    from ..resilience import BudgetSpec
    from ..service.server import VerificationService
    from ..service.telemetry import Telemetry, stderr_telemetry

    service_spec = None
    if args.deadline is not None or args.conflicts is not None:
        service_spec = BudgetSpec(
            deadline_s=args.deadline, conflict_allowance=args.conflicts
        )
    service = VerificationService(
        cache_dir=args.cache_dir,
        max_queue=args.max_queue,
        service_spec=service_spec,
        shard_id=args.shard_id,
        telemetry=Telemetry() if args.quiet else stderr_telemetry(),
    )

    def announce(bound) -> None:
        if isinstance(bound, tuple):
            print(f"listening on http://{bound[0]}:{bound[1]}", flush=True)
        else:
            print(f"listening on unix:{bound}", flush=True)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            # "abort" mode: drain in-flight jobs at block granularity via
            # the cooperative shutdown event — remaining blocks land on the
            # unknown rung, caches flush, partial reports stay fetchable
            # until the loop exits.
            loop.add_signal_handler(
                signum, service.request_stop, "abort"
            )
        await service.serve(
            host=args.host, port=args.port,
            socket_path=args.socket, ready=announce,
        )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        service.stop(abort=True)
    print("daemon stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
