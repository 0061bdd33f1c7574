"""The checker's trust base, pinned: exactly which ``repro`` modules a
``tools/check`` run loads.

The paper's trust story is a small kernel checking terms built by large,
untrusted automation; here the kernel is whatever ``repro.tools.check``
imports.  A fresh interpreter runs the CLI on a real certificate and
reports its ``repro`` modules, so any import that grows (or shrinks) the
trust base fails this test until the set below — and DESIGN.md's
"Trust base" list, which names the same modules — changes with it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

TRUST_BASE = frozenset({
    "repro",
    "repro.itl",
    "repro.itl.events",
    "repro.itl.machine",
    "repro.itl.opsem",
    "repro.itl.parser",
    "repro.itl.printer",
    "repro.itl.trace",
    "repro.logic",
    "repro.logic.checker",
    "repro.logic.proof",
    "repro.obs",
    "repro.resilience",
    "repro.resilience.budget",
    "repro.resilience.faults",
    "repro.resilience.ladder",
    "repro.resilience.outcome",
    "repro.resilience.shutdown",
    "repro.smt",
    "repro.smt.bitblast",
    "repro.smt.builder",
    "repro.smt.cnf",
    "repro.smt.interp",
    "repro.smt.sat",
    "repro.smt.slicing",
    "repro.smt.smtlib",
    "repro.smt.solver",
    "repro.smt.sorts",
    "repro.smt.terms",
    "repro.smt.theory",
    "repro.tools",
    "repro.tools.check",
})

PROBE = """
import contextlib, io, json, sys
from repro.tools.check import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main([sys.argv[1]])
print(json.dumps({
    "status": status,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
}))
"""


def test_check_loads_exactly_the_trust_base(tmp_path):
    from repro.casestudies import rbit

    cert = tmp_path / "rbit.cert.json"
    cert.write_text(rbit.verify(rbit.build()).to_json())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", PROBE, str(cert)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout)
    assert result["status"] == 0
    loaded = set(result["modules"])
    assert loaded == TRUST_BASE, (
        f"added: {sorted(loaded - TRUST_BASE)}, "
        f"missing: {sorted(TRUST_BASE - loaded)}"
    )
