"""CLI: run the sharded verification fleet.

Starts N ``tools/serve`` backend shards as subprocesses on Unix domain
sockets under a :class:`~repro.service.supervisor.ShardSupervisor`
(heartbeats, SIGKILL-tolerant restarts with exponential backoff) and a
:class:`~repro.service.fleet.FleetRouter` front end speaking the same job
API as a single daemon — ``tools/submit`` and any existing HTTP client
work against a fleet unchanged.

Crash safety: with ``--journal`` every accepted job is durably journaled
before its 202 and every result is journaled on completion, so a killed
and restarted fleet (same journal path) resubmits unfinished jobs and
serves finished ones from the journal without re-running them.

Examples::

    python -m repro.tools.fleet --shards 4 --port 8650 --cache-dir .repro-cache
    python -m repro.tools.fleet --shards 3 --journal fleet.journal \\
        --run-dir /tmp/repro-fleet
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import tempfile


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.fleet", description=__doc__)
    parser.add_argument("--host", default="127.0.0.1", help="router bind address")
    parser.add_argument(
        "--port", type=int, default=8650,
        help="router TCP port (0 = pick a free one and print it)",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve the router on a Unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="backend shard processes"
    )
    parser.add_argument(
        "--run-dir", default=None,
        help="directory for shard sockets and logs (default: a temp dir)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="crash-safe job journal; reuse the same path to recover",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache root; each shard gets <cache-dir>/shard-<i> so a "
        "restarted shard comes back warm",
    )
    parser.add_argument(
        "--runners", type=int, default=1, choices=[1],
        help="jobs a shard runs at a time; only 1 is accepted (scale with --shards)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=256,
        help="router admission cap on undispatched jobs",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="fleet-wide per-partition wall-clock budget",
    )
    parser.add_argument(
        "--conflicts", type=int, default=None,
        help="fleet-wide SAT-conflict pool, partitioned across shards",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=600.0,
        help="give up on a job undeliverable for this many seconds",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=0.5, metavar="S",
        help="supervisor heartbeat cadence",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress structured JSON logs on stderr",
    )
    args = parser.parse_args(argv)

    import os

    from ..resilience import BudgetSpec
    from ..service.fleet import FleetRouter
    from ..service.supervisor import ProcessShard, ShardSupervisor
    from ..service.telemetry import Telemetry, stderr_telemetry

    run_dir = args.run_dir or tempfile.mkdtemp(prefix="repro-fleet-")
    service_spec = None
    if args.deadline is not None or args.conflicts is not None:
        service_spec = BudgetSpec(
            deadline_s=args.deadline, conflict_allowance=args.conflicts
        )
    telemetry = Telemetry() if args.quiet else stderr_telemetry()

    def factory(slot, shard_id, generation, budget_spec):
        cache_dir = (
            os.path.join(args.cache_dir, f"shard-{slot}")
            if args.cache_dir
            else None
        )
        return ProcessShard(
            shard_id,
            run_dir=run_dir,
            cache_dir=cache_dir,
            budget_spec=budget_spec,
            generation=generation,
        )

    supervisor = ShardSupervisor(
        factory,
        args.shards,
        service_spec=service_spec,
        heartbeat_s=args.heartbeat,
        telemetry=telemetry,
    )
    router = FleetRouter(
        supervisor,
        journal_path=args.journal,
        telemetry=telemetry,
        max_queue=args.max_queue,
        job_timeout_s=args.job_timeout,
    )

    def announce(bound) -> None:
        if isinstance(bound, tuple):
            print(f"fleet listening on http://{bound[0]}:{bound[1]}", flush=True)
        else:
            print(f"fleet listening on unix:{bound}", flush=True)
        print(f"run dir: {run_dir}", flush=True)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, router.request_stop)
        await router.serve(
            host=args.host, port=args.port,
            socket_path=args.socket, ready=announce,
        )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        router.stop()
    print("fleet stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
