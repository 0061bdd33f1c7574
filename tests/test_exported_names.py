"""The exported metric names are pinned by a checked-in golden list.

Dashboards and the CI daemon smoke read ``/metrics`` counters and gauges by
name, and ``verify --stats-json`` consumers read its per-group keys; a
refactor must not rename or drop one silently.  The probe runs in a fresh
interpreter, so process-global state left by other tests (built families,
validated ISA specs, a warm check cache) cannot change what it sees:

- the ``/metrics.json`` counter and gauge names after one ``memcpy_arm``
  daemon job (in-process pool, on-disk cache);
- the ``solver``/``cache``/``executor`` key sets of
  ``verify memcpy_arm --stats-json``.

An intended rename regenerates the list::

    PYTHONPATH=src python tests/test_exported_names.py > tests/exported_names.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("exported_names.json")
GROUPS = ("solver", "cache", "executor")


def _daemon_names(cache_dir: str) -> dict:
    from repro.service.client import ServiceClient
    from repro.service.server import VerificationService
    from tests.service._http import launch

    service = VerificationService(cache_dir=cache_dir)
    thread, (host, port) = launch(service)
    client = ServiceClient(host=host, port=port, timeout=300)
    try:
        assert client.run("memcpy_arm", timeout=300)["ok"]
        metrics = client.metrics()
    finally:
        client.shutdown()
        thread.join(timeout=60)
    return {
        "metrics_counters": sorted(metrics["counters"]),
        "metrics_gauges": sorted(metrics["gauges"]),
    }


def _stats_json_keys(path: str) -> dict:
    from repro.tools.verify import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["memcpy_arm", "--no-cache", "--stats-json", path]) == 0
    case = json.loads(Path(path).read_text())["cases"]["memcpy_arm"]
    return {f"stats_json_{group}": sorted(case[group]) for group in GROUPS}


def probe() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        names = _stats_json_keys(os.path.join(tmp, "stats.json"))
        names.update(_daemon_names(os.path.join(tmp, "cache")))
    return names


def test_exported_names_match_golden():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
    ))
    run = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        env=env, cwd=root, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    print(json.dumps(probe(), indent=1, sort_keys=True))
