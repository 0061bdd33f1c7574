"""The pipeline has one engine configuration.

Goal slicing is always on; its parity with whole-goal solving is tested
through ``tests/_reference.py``, not selected at run time.  Trace
generation and block proofs always run in the calling process.  This
guard keeps kill switches and process-pool knobs from creeping back in as
environment variables or CLI flags (``--no-parametric`` and
``--no-incremental`` name engines that no longer exist).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.tools import fleet, serve
from repro.tools.verify import main

SRC = Path(repro.__file__).resolve().parent  # .../src/repro


def test_no_module_reads_a_kill_switch_variable():
    pattern = re.compile(r"REPRO_NO_\w*")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize("flag", ["--no-parametric", "--no-incremental", "--no-slice"])
def test_verify_rejects_engine_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--all", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tool,argv",
    [
        # ``--jobs=2``: with ``--jobs 2`` the positional case name takes the
        # ``2`` and the parser reports an invalid case instead.
        pytest.param(main, ["--all", "--jobs=2"], id="verify-all-jobs"),
        pytest.param(main, ["memcpy_arm", "--jobs", "2"], id="verify-case-jobs"),
        pytest.param(serve.main, ["--jobs", "2"], id="serve-jobs"),
        pytest.param(serve.main, ["--block-jobs", "2"], id="serve-block-jobs"),
        pytest.param(serve.main, ["--batch-window", "0.01"], id="serve-batch-window"),
        pytest.param(fleet.main, ["--pool-jobs", "2"], id="fleet-pool-jobs"),
        pytest.param(fleet.main, ["--block-jobs", "2"], id="fleet-block-jobs"),
    ],
)
def test_clis_reject_process_pool_flags(tool, argv, capsys, monkeypatch):
    def never_serve(*_args, **_kwargs):
        raise AssertionError(f"{argv} was accepted")

    # A CLI that accepted the flag would go on to serve; fail instead.
    monkeypatch.setattr("asyncio.run", never_serve)
    with pytest.raises(SystemExit) as exc:
        tool(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_all_rejects_jobs():
    with pytest.raises(SystemExit) as exc:
        main(["--all", "--jobs", "2"])
    assert exc.value.code == 2
