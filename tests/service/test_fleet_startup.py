"""Fleet start-up: shards launch together, and the router stays small.

A fleet is up when its slowest shard is: the supervisor launches every
shard before it waits on any, and a shard that fails to start takes every
shard launched with it down before the error propagates.  The router only
routes, so it imports the service layer and the name tables, never the
proof pipeline; a shard imports what its jobs run before it answers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.service.supervisor import ProcessShard, ShardHandle, ShardSupervisor

SRC = str(Path(__file__).resolve().parents[2] / "src")


class RecordingShard(ShardHandle):
    """A fake handle that logs each lifecycle call into a shared list."""

    def __init__(self, shard_id: str, calls: list, fail: str | None = None):
        self.shard_id = shard_id
        self.calls = calls
        self.fail = fail

    def launch(self) -> None:
        self.calls.append(("launch", self.shard_id))
        if self.fail == "launch":
            raise RuntimeError(f"{self.shard_id} failed to launch")

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        self.calls.append(("wait", self.shard_id))
        if self.fail == "wait":
            raise RuntimeError(f"{self.shard_id} never became healthy")

    def stop(self) -> None:
        self.calls.append(("stop", self.shard_id))

    def make_client(self, **kwargs) -> ServiceClient:
        return ServiceClient(socket_path=os.devnull, **kwargs)


def _recording_supervisor(calls: list, failing: dict | None = None):
    failing = failing or {}

    def factory(_slot, shard_id, _generation, _spec):
        return RecordingShard(shard_id, calls, failing.get(shard_id))

    # A long heartbeat keeps the monitor from probing the fakes.
    return ShardSupervisor(factory, shards=3, heartbeat_s=60.0)


def test_every_shard_launches_before_any_is_waited_on():
    calls: list = []
    supervisor = _recording_supervisor(calls)
    supervisor.start()
    try:
        assert calls == [
            ("launch", "shard-0"), ("launch", "shard-1"), ("launch", "shard-2"),
            ("wait", "shard-0"), ("wait", "shard-1"), ("wait", "shard-2"),
        ]
        assert all(slot["state"] == "up" for slot in supervisor.snapshot())
    finally:
        supervisor.stop()


def test_a_shard_that_never_answers_stops_every_launched_shard():
    calls: list = []
    supervisor = _recording_supervisor(calls, {"shard-1": "wait"})
    with pytest.raises(RuntimeError, match="shard-1 never became healthy"):
        supervisor.start()
    stops = [shard for call, shard in calls if call == "stop"]
    assert sorted(stops) == ["shard-0", "shard-1", "shard-2"]
    assert ("wait", "shard-2") not in calls


def test_a_shard_that_fails_to_launch_stops_the_ones_before_it():
    calls: list = []
    supervisor = _recording_supervisor(calls, {"shard-1": "launch"})
    with pytest.raises(RuntimeError, match="shard-1 failed to launch"):
        supervisor.start()
    assert ("launch", "shard-2") not in calls
    assert not any(call == "wait" for call, _shard in calls)
    stops = [shard for call, shard in calls if call == "stop"]
    assert sorted(stops) == ["shard-0", "shard-1"]


class DeadOnArrival(ProcessShard):
    """A subprocess shard whose process exits before it ever listens."""

    def launch(self) -> None:
        self._log = open(os.devnull, "ab")
        self._proc = subprocess.Popen(
            [sys.executable, "-c", "raise SystemExit(3)"]
        )


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_second_process_shard_failing_stops_the_first(tmp_path):
    shards: list[ProcessShard] = []

    def factory(slot, shard_id, generation, spec):
        kind = DeadOnArrival if slot == 1 else ProcessShard
        shard = kind(shard_id, run_dir=str(tmp_path), generation=generation)
        shards.append(shard)
        return shard

    supervisor = ShardSupervisor(factory, shards=2, heartbeat_s=60.0)
    with pytest.raises(RuntimeError, match="shard-1 exited 3 at startup"):
        supervisor.start()
    pids = [shard.pid for shard in shards]
    assert all(pid is not None for pid in pids)
    # ``stop`` reaped both, so neither pid names a live process.
    assert not any(_alive(pid) for pid in pids)
    assert all(shard._proc.returncode is not None for shard in shards)


def test_a_probe_of_a_shard_not_listening_yet_closes_its_socket(tmp_path):
    import gc
    import warnings

    from repro.service.client import ServiceUnavailable

    client = ServiceClient(socket_path=str(tmp_path / "absent.sock"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for _ in range(3):
            with pytest.raises(ServiceUnavailable):
                client.healthz()
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _probe(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


#: Packages of the proof pipeline.  ``repro.arch`` itself and
#: ``repro.arch.registry`` are plain tables (models load on first use),
#: and ``check_case`` reads the architecture names from the registry.
PIPELINE = (
    "arch", "smt", "sail", "isla", "itl", "logic", "cosim", "casestudies",
    "cache", "frontend",
)
REGISTRY = {"repro.arch", "repro.arch.registry"}


def _pipeline_modules(modules: list[str]) -> list[str]:
    return [
        name
        for name in modules
        if name not in REGISTRY
        and any(
            name == f"repro.{pkg}" or name.startswith(f"repro.{pkg}.")
            for pkg in PIPELINE
        )
    ]


def test_the_router_imports_no_pipeline_module(tmp_path):
    modules = _probe(
        """
        import json, sys
        import repro.tools.fleet
        from repro.arch import registry
        from repro.cases import CASE_STUDIES
        from repro.service.fleet import FleetRouter
        from repro.service.protocol import check_case
        from repro.service.supervisor import ProcessShard, ShardSupervisor

        def factory(_slot, shard_id, generation, _spec):
            return ProcessShard(shard_id, run_dir=sys.argv[1],
                                generation=generation)

        router = FleetRouter(ShardSupervisor(factory, 2))
        for case in CASE_STUDIES:
            check_case(case)
        for arch in registry.names():
            check_case("cosim:" + arch)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """,
        str(tmp_path),
    )
    assert "repro.service.fleet" in modules
    assert _pipeline_modules(modules) == []


def test_the_case_table_matches_the_case_modules():
    from repro import casestudies
    from repro.cases import CASE_STUDIES

    assert casestudies.__all__ == list(CASE_STUDIES)
    for name in CASE_STUDIES:
        assert callable(getattr(casestudies, name).build)


def test_importing_the_case_studies_loads_no_cosim():
    modules = _probe(
        """
        import json, sys
        import repro.casestudies
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    assert "repro.casestudies.memcpy_arm" in modules
    assert not [m for m in modules if m.split(".")[:2] == ["repro", "cosim"]]


def test_a_shard_imports_what_its_jobs_run_before_it_answers(tmp_path):
    seen = _probe(
        """
        import asyncio, json, sys, threading, time
        from repro.service.client import ServiceClient

        NAMES = ("repro.casestudies", "repro.cosim", "repro.logic.checker")
        path = sys.argv[1]
        at_bind = {}
        bind = asyncio.start_unix_server

        async def recording_bind(*args, **kwargs):
            at_bind.update({name: name in sys.modules for name in NAMES})
            return await bind(*args, **kwargs)

        asyncio.start_unix_server = recording_bind

        def drive():
            client = ServiceClient(socket_path=path, timeout=10.0)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if client.healthz().get("ok"):
                        break
                except Exception:
                    time.sleep(0.05)
            client.shutdown()

        threading.Thread(target=drive, daemon=True).start()
        from repro.tools import serve
        serve.main(["--socket", path, "--quiet"])
        print(json.dumps(at_bind))
        """,
        str(tmp_path / "s.sock"),
    )
    assert seen == {
        "repro.casestudies": True,
        "repro.cosim": True,
        "repro.logic.checker": True,
    }


def test_a_shard_loads_no_module_after_it_binds(tmp_path):
    """One verification job and one cosim job per arch import nothing the
    shard had not imported before its socket bound."""
    later = _probe(
        """
        import asyncio, json, sys, threading, time
        from repro.service.client import ServiceClient

        path = sys.argv[1]
        at_bind = set()
        bind = asyncio.start_unix_server

        async def recording_bind(*args, **kwargs):
            at_bind.update(m for m in sys.modules if m.startswith("repro"))
            return await bind(*args, **kwargs)

        asyncio.start_unix_server = recording_bind
        later = []

        def drive():
            while not at_bind:
                time.sleep(0.01)
            client = ServiceClient(socket_path=path, timeout=60.0)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if client.healthz().get("ok"):
                        break
                except Exception:
                    time.sleep(0.01)
            try:
                client.run("memcpy_arm", kwargs={"n": 2})
                for arch in ("arm", "ppc", "riscv"):
                    client.run("cosim:" + arch, kwargs={"seed": 1, "count": 4})
                later.extend(
                    m for m in sys.modules
                    if m.startswith("repro") and m not in at_bind
                )
            finally:
                client.shutdown()

        threading.Thread(target=drive, daemon=True).start()
        from repro.tools import serve
        serve.main(["--socket", path, "--quiet"])
        print(json.dumps(sorted(later)))
        """,
        str(tmp_path / "s.sock"),
    )
    assert later == []
