"""Shard lifecycle: spawn, heartbeat, restart with backoff, reabsorb.

A :class:`ShardSupervisor` owns N backend verification daemons ("shards")
behind the fleet router.  Each shard slot holds one live
:class:`ShardHandle` — either a :class:`ProcessShard` (a real
``tools/serve`` subprocess on a Unix socket, SIGKILL-able) or a
:class:`LocalShard` (an in-thread daemon used by tests and the chaos
suite, "killed" by abandoning its state without draining).  The
supervisor launches every shard before it waits on any, so a fleet of
subprocess shards is up as soon as its slowest shard is.  Its monitor
thread probes every shard's ``/healthz`` on a fixed cadence;
``miss_limit`` consecutive failed heartbeats declare the shard dead,
after which it is restarted with bounded exponential backoff
(``backoff_base_s * 2^attempts``, capped) — the same shape as the budget
ladder and the client's retry backoff.  A shard that then stays up for
``stable_reset_s`` gets its backoff reset; a flapping one climbs the
ladder instead of hot-looping.

Budget reabsorption: the supervisor owns the fleet-wide budget pool (one
:class:`~repro.resilience.budget.Budget` over the service spec) and hands
each shard slot a *partition* of the spec (``spec.partition(n)[i]``).
The pool drains only by **absorbed actual consumption** — the router
feeds each completed job's budget snapshot into :meth:`absorb` — never by
the handed-out partitions, so a dead shard's unconsumed share returns to
the pool *exactly*: remaining = allowance − Σ(absorbed), an identity the
tests assert rather than log.  This is the PR 1/PR 5 absorb arithmetic
lifted one level up.

The ``service.heartbeat`` fault site is consulted inside the monitor
loop: an injected ``delay`` makes that probe count as a miss, which is
how the chaos harness drives spurious-death/restart paths
deterministically.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from ..resilience import Budget, BudgetSpec, fault_at
from .client import ServiceClient, ServiceError

UP = "up"
DOWN = "down"


class ShardHandle:
    """One live backend daemon: address, lifecycle, client factory."""

    shard_id: str

    def launch(self) -> None:
        """Begin starting the shard; :meth:`wait_ready` finishes the job."""
        raise NotImplementedError

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until a launched shard serves, or raise; nothing to do
        for a handle whose :meth:`launch` already waited."""

    def start(self, timeout_s: float = 30.0) -> None:
        """Launch the shard and wait for it; a shard that never comes up
        is stopped before the error propagates."""
        self.launch()
        try:
            self.wait_ready(timeout_s)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        """Abrupt death: no drain, no flush, in-flight jobs lost."""
        raise NotImplementedError

    def make_client(self, **kwargs) -> ServiceClient:
        raise NotImplementedError

    @property
    def pid(self) -> int | None:
        return None


class LocalShard(ShardHandle):
    """An in-process shard: a :class:`VerificationService` on a thread.

    Used by tests and the in-process chaos harness, where spawning real
    subprocesses per seed would dominate the run.  Like every daemon it
    runs one job at a time.  ``kill()`` simulates a crash faithfully from
    the fleet's point of view: the listener closes immediately, nothing
    drains or reports, and the restarted shard has an empty job table —
    every in-flight job is lost exactly as under SIGKILL.  (What it cannot
    simulate is losing the *process*: solver state is process-global, so
    in-process shards share the check-cache LRU and the enumeration memos,
    and two of them can run jobs at once against them.  The production
    path is :class:`ProcessShard`.)
    """

    def __init__(
        self,
        shard_id: str,
        cache_dir: str | None = None,
        budget_spec: BudgetSpec | None = None,
        telemetry=None,
    ) -> None:
        self.shard_id = shard_id
        self._config = dict(
            cache_dir=cache_dir,
            service_spec=budget_spec,
            telemetry=telemetry,
        )
        self.service = None
        self._thread: threading.Thread | None = None
        self.host: str | None = None
        self.port: int | None = None

    def launch(self) -> None:
        """Start the service and wait for its socket.  In-process shards
        share process globals (the solver's check store among them), so
        they start one at a time: :meth:`wait_ready` has nothing left."""
        import asyncio

        from .server import VerificationService

        self.service = VerificationService(
            shard_id=self.shard_id, **self._config
        )
        bound: dict = {}
        ready = threading.Event()

        def on_ready(addr) -> None:
            bound["addr"] = addr
            ready.set()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                self.service.serve(port=0, ready=on_ready)
            ),
            name=f"{self.shard_id}-loop",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(30.0):
            raise RuntimeError(f"{self.shard_id} never bound its socket")
        self.host, self.port = bound["addr"]

    def stop(self) -> None:
        if self.service is not None:
            self.service.request_stop("drain")
        if self._thread is not None:
            self._thread.join(timeout=30)

    def kill(self) -> None:
        if self.service is not None:
            self.service.request_stop("crash")
        if self._thread is not None:
            self._thread.join(timeout=5)

    def make_client(self, **kwargs) -> ServiceClient:
        return ServiceClient(host=self.host, port=self.port, **kwargs)


class ProcessShard(ShardHandle):
    """A real ``tools/serve`` subprocess on a Unix domain socket.

    The production shard: its death is a process death (``kill()`` sends
    SIGKILL), its warm state lives in its per-shard cache directory so a
    restart under the same slot comes back warm, and its logs land next
    to its socket in the run directory.
    """

    def __init__(
        self,
        shard_id: str,
        run_dir: str,
        cache_dir: str | None = None,
        budget_spec: BudgetSpec | None = None,
        generation: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.run_dir = run_dir
        self.cache_dir = cache_dir
        self.budget_spec = budget_spec
        self.generation = generation
        self.socket_path = os.path.join(
            run_dir, f"{shard_id}-g{generation}.sock"
        )
        self._proc: subprocess.Popen | None = None

    def launch(self) -> None:
        """Spawn the ``tools/serve`` process without waiting for it."""
        os.makedirs(self.run_dir, exist_ok=True)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        argv = [
            sys.executable, "-m", "repro.tools.serve",
            "--socket", self.socket_path,
            "--shard-id", self.shard_id,
        ]
        if self.cache_dir:
            argv += ["--cache-dir", self.cache_dir]
        if self.budget_spec is not None:
            if self.budget_spec.deadline_s is not None:
                argv += ["--deadline", str(self.budget_spec.deadline_s)]
            if self.budget_spec.conflict_allowance is not None:
                argv += ["--conflicts", str(self.budget_spec.conflict_allowance)]
        log_path = os.path.join(
            self.run_dir, f"{self.shard_id}-g{self.generation}.log"
        )
        self._log = open(log_path, "ab")
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._proc = subprocess.Popen(
            argv, stdout=self._log, stderr=self._log, env=env
        )

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Poll ``/healthz`` until the launched process answers."""
        client = self.make_client(
            timeout=2.0, connect_timeout=1.0
        )
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if client.healthz().get("ok"):
                    return
            except (ServiceError, OSError):
                pass
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"{self.shard_id} exited {self._proc.returncode} at startup"
                )
            if time.monotonic() >= deadline:
                raise RuntimeError(f"{self.shard_id} never became healthy")
            time.sleep(0.005)  # a refused probe costs microseconds

    def stop(self) -> None:
        if self._proc is None:
            return
        if self._proc.poll() is None:
            try:
                self.make_client(timeout=5.0, connect_timeout=1.0).shutdown()
            except (ServiceError, OSError):
                # Not listening (yet, or any more): nothing else will ask
                # it to exit.  ``tools/serve`` drains on SIGTERM.
                self._proc.terminate()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=10)
        self._log.close()

    def kill(self) -> None:
        """SIGKILL the process and close its log; :meth:`stop` afterwards
        has nothing left to do."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.wait(timeout=10)
        self._log.close()

    def make_client(self, **kwargs) -> ServiceClient:
        return ServiceClient(socket_path=self.socket_path, **kwargs)

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None


@dataclass
class ShardSlot:
    """Supervisor-side state of one shard position."""

    index: int
    shard_id: str
    handle: ShardHandle
    budget_spec: BudgetSpec | None
    state: str = UP
    misses: int = 0
    restart_attempts: int = 0
    next_restart_at: float = 0.0
    became_up_at: float = 0.0
    generation: int = 0

    def snapshot(self) -> dict:
        return {
            "shard": self.shard_id,
            "state": self.state,
            "misses": self.misses,
            "restarts": self.restart_attempts,
            "generation": self.generation,
            "pid": self.handle.pid,
        }


class ShardSupervisor:
    """Spawn N shards, watch their heartbeats, restart the dead ones."""

    def __init__(
        self,
        factory,
        shards: int,
        service_spec: BudgetSpec | None = None,
        heartbeat_s: float = 0.15,
        heartbeat_timeout_s: float = 1.0,
        miss_limit: int = 2,
        backoff_base_s: float = 0.2,
        backoff_cap_s: float = 5.0,
        stable_reset_s: float = 10.0,
        telemetry=None,
        clock=time.monotonic,
        on_up=None,
        on_down=None,
    ) -> None:
        """``factory(slot_index, shard_id, generation, budget_spec)`` must
        return an *unstarted* :class:`ShardHandle`; it is called again with
        a bumped generation for every restart."""
        if shards < 1:
            raise ValueError("need at least one shard")
        self.factory = factory
        self.service_spec = service_spec
        self.pool = Budget(service_spec) if service_spec is not None else None
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.miss_limit = max(1, miss_limit)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.stable_reset_s = stable_reset_s
        self.telemetry = telemetry
        self.clock = clock
        self.on_up = on_up
        self.on_down = on_down
        partitions = (
            service_spec.partition(shards)
            if service_spec is not None
            else [None] * shards
        )
        self._lock = threading.Lock()
        self._round_done = threading.Condition(self._lock)
        #: Monitor rounds finished since construction (every slot probed
        #: or restart-checked once per round).
        self.rounds = 0
        self.slots = [
            ShardSlot(
                index=i,
                shard_id=f"shard-{i}",
                handle=factory(i, f"shard-{i}", 0, partitions[i]),
                budget_spec=partitions[i],
            )
            for i in range(shards)
        ]
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Launch every shard, then wait for each: the fleet is up after
        its slowest shard, not after the sum of them.  If any shard fails
        to start, every shard launched so far is stopped and the first
        error propagates."""
        launched: list[ShardSlot] = []
        try:
            for slot in self.slots:
                launched.append(slot)
                slot.handle.launch()
            for slot in self.slots:
                slot.handle.wait_ready()
                slot.state = UP
                slot.became_up_at = self.clock()
        except BaseException:
            for slot in launched:
                try:
                    slot.handle.stop()
                except Exception:  # noqa: BLE001 — the first error wins
                    pass
            raise
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-supervisor", daemon=True
        )
        self._monitor.start()
        self._inc("shards_started", len(self.slots))

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=30)
        for slot in self.slots:
            try:
                slot.handle.stop()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass

    # -- views ----------------------------------------------------------------

    @property
    def shard_ids(self) -> list[str]:
        return [slot.shard_id for slot in self.slots]

    def slot(self, shard_id: str) -> ShardSlot:
        for candidate in self.slots:
            if candidate.shard_id == shard_id:
                return candidate
        raise KeyError(shard_id)

    def is_up(self, shard_id: str) -> bool:
        with self._lock:
            return self.slot(shard_id).state == UP

    def handle(self, shard_id: str) -> ShardHandle:
        with self._lock:
            return self.slot(shard_id).handle

    def snapshot(self) -> list[dict]:
        with self._lock:
            return [slot.snapshot() for slot in self.slots]

    # -- budget pool ----------------------------------------------------------

    def absorb(self, snapshot: dict | None) -> None:
        """Fold one completed job's actual consumption into the pool."""
        if snapshot and self.pool is not None:
            with self._lock:  # ``+=`` on the pool is not atomic
                self.pool.absorb(snapshot)

    def pool_remaining(self) -> int | None:
        """allowance − Σ(absorbed): exact, by the absorb arithmetic —
        handed-out shard partitions never drain it, so a dead shard's
        unconsumed share is restored by construction."""
        if self.pool is None:
            return None
        return self.pool.remaining_conflicts()

    # -- chaos hooks ----------------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """Abruptly kill one shard (the chaos harness's SIGKILL)."""
        handle = self.handle(shard_id)
        self._inc("shard_kills")
        self._log("shard-killed", shard=shard_id)
        handle.kill()

    # -- the monitor ----------------------------------------------------------

    def restart_bound_s(self, attempts: int) -> float:
        """The worst-case delay from death to restart *attempt*: the miss
        window plus the backoff rung (tests assert recovery within this
        bound plus startup time)."""
        backoff = min(self.backoff_cap_s, self.backoff_base_s * (2 ** attempts))
        return (self.miss_limit + 1) * (
            self.heartbeat_s + self.heartbeat_timeout_s
        ) + backoff

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            for slot in self.slots:
                try:
                    if slot.state == UP:
                        self._heartbeat(slot)
                    elif self.clock() >= slot.next_restart_at:
                        self._restart(slot)
                except Exception as exc:  # noqa: BLE001 — monitor survives
                    self._log(
                        "supervisor-error", shard=slot.shard_id, error=str(exc)
                    )
            with self._round_done:
                self.rounds += 1
                self._round_done.notify_all()

    def wait_rounds(self, rounds: int, timeout_s: float) -> bool:
        """Block until the monitor has finished ``rounds`` rounds in all;
        False if ``timeout_s`` ran out first."""
        with self._round_done:
            return self._round_done.wait_for(
                lambda: self.rounds >= rounds, timeout_s
            )

    def _heartbeat(self, slot: ShardSlot) -> None:
        delayed = fault_at("service.heartbeat") == "delay"
        healthy = False
        if delayed:
            self._inc("heartbeats_delayed")
        else:
            client = slot.handle.make_client(
                timeout=self.heartbeat_timeout_s,
                connect_timeout=self.heartbeat_timeout_s,
            )
            try:
                healthy = bool(client.healthz().get("ok"))
            except (ServiceError, OSError):
                healthy = False
        with self._lock:
            if healthy:
                slot.misses = 0
                if (
                    slot.restart_attempts
                    and self.clock() - slot.became_up_at >= self.stable_reset_s
                ):
                    slot.restart_attempts = 0
                return
            slot.misses += 1
            if slot.misses < self.miss_limit:
                return
            slot.state = DOWN
            slot.misses = 0
            backoff = min(
                self.backoff_cap_s,
                self.backoff_base_s * (2 ** slot.restart_attempts),
            )
            slot.next_restart_at = self.clock() + backoff
        self._inc("shard_deaths")
        self._log("shard-down", shard=slot.shard_id, backoff_s=backoff)
        try:
            slot.handle.kill()  # reap a half-dead process; no-op if gone
        except Exception:  # noqa: BLE001
            pass
        if self.on_down is not None:
            self.on_down(slot.shard_id)

    def _restart(self, slot: ShardSlot) -> None:
        # Generations advance per *attempt*, not per success, so a failed
        # replacement never reuses its predecessor's socket path or log.
        with self._lock:
            slot.generation += 1
            generation = slot.generation
        try:
            handle = self.factory(
                slot.index, slot.shard_id, generation, slot.budget_spec
            )
            handle.start()
        except Exception as exc:  # noqa: BLE001 — climb the backoff ladder
            with self._lock:
                slot.restart_attempts += 1
                backoff = min(
                    self.backoff_cap_s,
                    self.backoff_base_s * (2 ** slot.restart_attempts),
                )
                slot.next_restart_at = self.clock() + backoff
            self._inc("shard_restart_failures")
            self._log(
                "shard-restart-failed", shard=slot.shard_id, error=str(exc)
            )
            return
        with self._lock:
            slot.handle = handle
            slot.state = UP
            slot.misses = 0
            slot.restart_attempts += 1
            slot.became_up_at = self.clock()
        self._inc("shard_restarts")
        self._log("shard-restarted", shard=slot.shard_id, generation=generation)
        if self.on_up is not None:
            self.on_up(slot.shard_id)

    # -- telemetry ------------------------------------------------------------

    def _inc(self, name: str, value: float = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.inc(name, value)

    def _log(self, event: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.log(event, **fields)
